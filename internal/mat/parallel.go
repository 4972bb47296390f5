package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The parallel kernels in this package fan work out over a bounded set of
// goroutine workers. Partitioning is always by independent output range
// (rows or columns of the product), so every element is computed by
// exactly one worker with the same per-element arithmetic order as the
// serial kernel: results are bitwise identical regardless of worker
// count.

// parMinFlops is the approximate floating-point work below which a chunk
// is not worth a goroutine: fan-out only happens when each worker gets at
// least this much work.
const parMinFlops = 1 << 16

// parWorkers holds the configured worker count; 0 selects
// runtime.GOMAXPROCS(0) at call time.
var parWorkers atomic.Int32

// SetWorkers sets the worker count used by the parallel kernels and
// returns the previous setting. n <= 0 restores the default,
// GOMAXPROCS-aware sizing. It may be called at any time, including
// concurrently with running kernels (in-flight calls keep the count they
// started with).
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(parWorkers.Swap(int32(n)))
}

// Workers returns the effective worker count for parallel kernels.
func Workers() int {
	if n := int(parWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelFor splits [0, n) into at most Workers() contiguous chunks of at
// least minChunk items each and runs fn on every chunk, blocking until all
// complete. When only one chunk results (small n or one worker) fn runs
// inline on the calling goroutine with no synchronization overhead.
func ParallelFor(n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := parChunks(n, minChunk)
	if chunks <= 1 {
		fn(0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// parChunks is the partitioning heuristic: how many chunks ParallelFor
// splits [0, n) into under the current worker setting (at least 1 for
// n > 0).
func parChunks(n, minChunk int) int {
	if minChunk < 1 {
		minChunk = 1
	}
	chunks := n / minChunk
	if chunks < 1 {
		chunks = 1
	}
	if w := Workers(); chunks > w {
		chunks = w
	}
	return chunks
}

// ChunkFor returns the minimum ParallelFor chunk length such that one
// chunk carries enough floating-point work to amortize its goroutine,
// given the per-item flop count. It is the single fan-out granularity
// heuristic for every parallel kernel, in this package and above it.
func ChunkFor(flopsPerItem int) int {
	if flopsPerItem <= 0 {
		return 1
	}
	c := parMinFlops / flopsPerItem
	if c < 1 {
		c = 1
	}
	return c
}
