// Fixture for rawgoroutine: internal/graph is not sanctioned — clique
// enumeration is serial and Phase II fans out only through parallelFor
// in internal/core — so a goroutine here is flagged.
package graph

import "sync"

func CliqueWorkers(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { // want `raw goroutine outside the sanctioned worker pools`
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
