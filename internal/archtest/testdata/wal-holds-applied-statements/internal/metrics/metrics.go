package metrics

func (m *Metrics) Snapshot() []KV {
	return []KV{{"wal.rollbacks", 0}} // want
}
