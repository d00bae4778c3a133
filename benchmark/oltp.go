package main

import (
	"fmt"
	"strconv"
	"sync"

	"grfusion/internal/core"
	"grfusion/internal/server"
	"grfusion/internal/types"
)

// oltp.adhoc: relational statements sent as SQL text with inline literals,
// so every one is framed, parsed and planned. No graph view exists; the
// graph layer must do nothing here.

const (
	oPK = iota
	oIndexed
	oRange
	oUpdate
	oInsert
	oDelete
)

var oltpKinds = []opKind{
	oPK:      {"pk", read},
	oIndexed: {"indexed", read},
	oRange:   {"range", read},
	oUpdate:  {"update", write},
	oInsert:  {"insert", write},
	oDelete:  {"delete", write},
}

const (
	accountRows  = 20_000
	acctBase     = 1_000_000
	rangeRows    = 20 // rows a balance range scan returns
	balanceStep  = 10 // balance = id*balanceStep: distinct, so a range's rows are known
	tempBalance  = -1 // inserted-then-deleted rows sit outside every scanned range
	accountsCols = "id BIGINT PRIMARY KEY, acct_no BIGINT, region VARCHAR, balance BIGINT, owner VARCHAR"
)

func acctNo(id int64) int64 { return acctBase + id*7 }

// ownerOf is the owner value after `version` updates of the row.
func ownerOf(id int64, version uint32) string {
	return "o" + strconv.FormatInt(id, 10) + "." + strconv.FormatUint(uint64(version), 10)
}

type oltpAdhoc struct {
	seed    uint64
	nclient int
	// version[id] counts the updates applied to the row's owner. Client i
	// touches only ids with id % nclient == i, so each element has one
	// writer and the expected owner of every read is known exactly.
	version []uint32
	streams []func() *op // per client, created once: a stream carries a pending delete and its next temp id
}

func newOLTPAdhoc(seed uint64, clients int) *oltpAdhoc {
	return &oltpAdhoc{seed: seed, nclient: clients, version: make([]uint32, accountRows),
		streams: make([]func() *op, clients)}
}

func (w *oltpAdhoc) name() string            { return "oltp.adhoc" }
func (w *oltpAdhoc) kinds() []opKind         { return oltpKinds }
func (w *oltpAdhoc) templates() []string     { return nil }
func (w *oltpAdhoc) traceStream() func() *op { return w.stream(0) }

func (w *oltpAdhoc) setup() (*system, error) {
	sys, err := serve(core.New(core.Options{}), w.nclient)
	if err != nil {
		return nil, err
	}
	c := sys.conns[0]
	err = c.script(`CREATE TABLE accounts (` + accountsCols + `)`)
	if err == nil {
		err = c.copyRows("accounts", accountRows, func(i int) types.Row {
			id := int64(i)
			return types.Row{types.NewInt(id), types.NewInt(acctNo(id)), types.NewString("r" + strconv.Itoa(i%16)),
				types.NewInt(id * balanceStep), types.NewString(ownerOf(id, 0))}
		})
	}
	if err == nil {
		err = c.script(`CREATE INDEX accounts_acct ON accounts (acct_no)`,
			`CREATE ORDERED INDEX accounts_balance ON accounts (balance)`)
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// stream is client i's op sequence over its own partition of the keys.
func (w *oltpAdhoc) stream(client int) func() *op {
	if w.streams[client] == nil {
		w.streams[client] = w.newStream(client)
	}
	return w.streams[client]
}

func (w *oltpAdhoc) newStream(client int) func() *op {
	r := newPRNG(w.seed, "oltp/client"+strconv.Itoa(client))
	var pendingDelete *op
	nextTemp := int64(accountRows + client) // fresh ids for insert+delete pairs, own partition
	ownKey := func() int64 { return int64(r.intn(accountRows/w.nclient)*w.nclient + client) }
	I := types.NewInt
	return func() *op {
		if o := pendingDelete; o != nil {
			pendingDelete = nil
			return o
		}
		switch p := r.intn(100); {
		case p < 30:
			id := ownKey()
			return &op{kind: oPK, si: -1,
				text:  fmt.Sprintf(`SELECT acct_no, owner FROM accounts WHERE id = %d`, id),
				want:  wantRows(1, I(acctNo(id)), types.NewString(ownerOf(id, w.version[id]))),
				probe: layerProbe{rel: relPK, table: "accounts", key: id}}
		case p < 65:
			id := ownKey()
			return &op{kind: oIndexed, si: -1,
				text:  fmt.Sprintf(`SELECT id, owner FROM accounts WHERE acct_no = %d`, acctNo(id)),
				want:  wantRows(1, I(id), types.NewString(ownerOf(id, w.version[id]))),
				probe: layerProbe{rel: relIndex, table: "accounts", key: acctNo(id), col: 1}}
		case p < 75:
			lo := int64(r.intn(accountRows - rangeRows))
			var idSum int64
			for id := lo; id < lo+rangeRows; id++ {
				idSum += id
			}
			return &op{kind: oRange, si: -1,
				text: fmt.Sprintf(`SELECT id, balance FROM accounts WHERE balance >= %d AND balance < %d`,
					lo*balanceStep, (lo+rangeRows)*balanceStep),
				want:  expect{custom: func(res *server.Result) bool { return sumFirstColumn(res, rangeRows) == idSum }},
				probe: layerProbe{rel: relRange, table: "accounts", key: lo * balanceStep, col: 3}}
		case p < 95:
			id := ownKey()
			w.version[id]++
			return &op{kind: oUpdate, si: -1,
				text:  fmt.Sprintf(`UPDATE accounts SET owner = '%s' WHERE acct_no = %d`, ownerOf(id, w.version[id]), acctNo(id)),
				want:  wantAffected(1),
				probe: layerProbe{rel: relUpdate, table: "accounts", key: id}}
		default:
			id := nextTemp
			nextTemp += int64(w.nclient)
			pendingDelete = &op{kind: oDelete, si: -1,
				text:  fmt.Sprintf(`DELETE FROM accounts WHERE id = %d`, id),
				want:  wantAffected(1),
				probe: layerProbe{rel: relDelete, table: "accounts", key: id}}
			return &op{kind: oInsert, si: -1,
				text: fmt.Sprintf(`INSERT INTO accounts VALUES (%d, %d, 'tmp', %d, 'tmp')`, id, acctNo(id), tempBalance),
				want: wantAffected(1),
				probe: layerProbe{rel: relInsert, table: "accounts", key: id, row: types.Row{I(id), I(acctNo(id)),
					types.NewString("tmp"), I(tempBalance), types.NewString("tmp")}}}
		}
	}
}

// sumFirstColumn returns the sum of the first column when the result has
// exactly n rows, and -1 otherwise.
func sumFirstColumn(res *server.Result, n int) int64 {
	if len(res.Rows) != n {
		return -1
	}
	var sum int64
	for _, row := range res.Rows {
		sum += row[0].I
	}
	return sum
}

func (w *oltpAdhoc) drive(sys *system, win window) []*clientLog {
	return driveClosed(sys, win, w.stream)
}

// driveClosed runs one closed-loop client per connection.
func driveClosed(sys *system, win window, stream func(client int) func() *op) []*clientLog {
	logs := make([]*clientLog, len(sys.conns))
	var wg sync.WaitGroup
	for i, c := range sys.conns {
		logs[i] = &clientLog{}
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			win.closedLoop(c, stream(i), logs[i])
		}(i, c)
	}
	wg.Wait()
	return logs
}

// verify compares the quiesced table with the model: row count (a pending
// delete may leave one temp row per client) and 50 sampled rows.
func (w *oltpAdhoc) verify(sys *system) (attempted, failed int) {
	c := sys.conns[0]
	count := &op{si: -1, text: `SELECT COUNT(*) FROM accounts`, want: expect{custom: func(res *server.Result) bool {
		if len(res.Rows) != 1 {
			return false
		}
		n := res.Rows[0][0].I
		return n >= accountRows && n <= int64(accountRows+w.nclient)
	}}}
	attempted++
	if !c.do(count) {
		failed++
	}
	r := newPRNG(w.seed, "oltp/verify")
	for i := 0; i < 50; i++ {
		id := int64(r.intn(accountRows))
		o := &op{si: -1, text: fmt.Sprintf(`SELECT owner, balance FROM accounts WHERE id = %d`, id),
			want: wantRows(1, types.NewString(ownerOf(id, w.version[id])), types.NewInt(id*balanceStep))}
		attempted++
		if !c.do(o) {
			failed++
		}
	}
	return attempted, failed
}
