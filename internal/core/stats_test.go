package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStatsHammerDuringConcurrentReads is the -race regression test for
// the §6.3 statistic: reader goroutines plan traversals whose BFS/DFS
// choice reads the average fan-out of their pinned version, and render it
// in EXPLAIN ANALYZE, while a writer grows and shrinks the topology. Each
// Stats line must report the counts of a version the writer published.
func TestStatsHammerDuringConcurrentReads(t *testing.T) {
	e := socialEngine(t)

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Unbounded multi-source scan: the planner's physical
				// choice reads the pinned version's fan-out.
				if _, err := e.Execute(`SELECT PS FROM SocialNetwork.Paths PS WHERE PS.Length <= 2`); err != nil {
					errs <- err
					return
				}
				r, err := e.Execute(`EXPLAIN ANALYZE SELECT COUNT(*) FROM SocialNetwork.Paths PS
					WHERE PS.StartVertex.Id = 1 AND PS.Length <= 2`)
				if err != nil {
					errs <- err
					return
				}
				text := planLines(t, r)
				// The writer toggles one edge: 5 or 6 edges over 5 vertexes.
				if !strings.Contains(text, "Stats[SocialNetwork]: avg_fanout=2.00 vertices=5 edges=5") &&
					!strings.Contains(text, "Stats[SocialNetwork]: avg_fanout=2.40 vertices=5 edges=6") {
					errs <- fmt.Errorf("Stats line of no published version:\n%s", text)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			id := 900 + i
			if _, err := e.Execute(fmt.Sprintf(`INSERT INTO Relationships VALUES (%d, 1, 5, '2020-01-01', false)`, id)); err != nil {
				errs <- err
				return
			}
			if _, err := e.Execute(fmt.Sprintf(`DELETE FROM Relationships WHERE relid = %d`, id)); err != nil {
				errs <- err
				return
			}
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
