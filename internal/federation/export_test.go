package federation

import (
	"context"
	"sync"
)

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// PollNow probes every vantage once, synchronously. Tests and boot paths
// use it to reach a settled state without waiting out the poll interval.
func (a *Aggregator) PollNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, v := range a.vantages {
		wg.Add(1)
		go func(v *vantage) {
			defer wg.Done()
			a.poll(ctx, v)
		}(v)
	}
	wg.Wait()
}
