// Package collector implements the measurement-collection pipeline: link
// agents (simulated NIC drivers) stream RSS report frames over UDP to a
// Collector, which validates, aggregates, and exposes them to the
// localization pipeline; a TCP control plane orchestrates survey passes
// and vacant captures.
//
// The collector replaces the paper's driver-level RSS extraction: the
// fingerprint pipeline consumes the collector's aggregates exactly as it
// would consume driver reports.
package collector

import (
	"fmt"
	"sync"
	"time"

	"tafloc/internal/wire"
)

// Mode is the store's aggregation mode.
type Mode int

// Aggregation modes.
const (
	// ModeLive only feeds the per-link live window.
	ModeLive Mode = iota
	// ModeSurvey additionally accumulates samples into the current
	// survey pass.
	ModeSurvey
	// ModeVacant additionally accumulates vacant-flagged samples into
	// the vacant pass.
	ModeVacant
)

// Stats counts collector activity.
type Stats struct {
	FramesReceived uint64
	FramesDropped  uint64 // short, corrupt, bad link ID
	SurveyPasses   uint64
	VacantPasses   uint64
}

// Store is the concurrency-safe aggregation core shared by the UDP loop
// and the consumers.
type Store struct {
	mu    sync.Mutex
	m     int // number of links
	mode  Mode
	cell  int // surveyed cell while in ModeSurvey
	stats Stats

	// live sliding window per link
	window     int
	live       [][]float64
	lastSeq    []uint32
	lastSeqSet []bool

	// accumulation for the current survey or vacant pass
	accSum   []float64
	accCount []int
}

// NewStore builds a store for m links with the given live-window length
// per link (default 8 when <= 0).
func NewStore(m, window int) (*Store, error) {
	if m <= 0 {
		return nil, fmt.Errorf("collector: need at least one link, got %d", m)
	}
	if window <= 0 {
		window = 8
	}
	s := &Store{
		m:          m,
		window:     window,
		live:       make([][]float64, m),
		lastSeq:    make([]uint32, m),
		lastSeqSet: make([]bool, m),
		accSum:     make([]float64, m),
		accCount:   make([]int, m),
	}
	return s, nil
}

// Links returns the link count.
func (s *Store) Links() int { return s.m }

// AddReport ingests one decoded report and reports whether it was kept.
// Reports with out-of-range link IDs are dropped. Duplicate or reordered
// frames (sequence not newer than the last seen) are kept but only feed
// the live window, never the pass accumulators, so a retransmitted
// survey frame cannot bias the average.
func (s *Store) AddReport(r *wire.RSSReport) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.FramesReceived++
	if int(r.LinkID) >= s.m {
		s.stats.FramesDropped++
		return false
	}
	i := int(r.LinkID)
	fresh := !s.lastSeqSet[i] || r.Seq > s.lastSeq[i]
	if fresh {
		s.lastSeq[i] = r.Seq
		s.lastSeqSet[i] = true
	}
	rss := r.RSS()
	s.live[i] = append(s.live[i], rss)
	if len(s.live[i]) > s.window {
		s.live[i] = s.live[i][len(s.live[i])-s.window:]
	}
	if !fresh {
		return true
	}
	switch s.mode {
	case ModeSurvey:
		s.accSum[i] += rss
		s.accCount[i]++
	case ModeVacant:
		if r.Vacant() {
			s.accSum[i] += rss
			s.accCount[i]++
		}
	}
	return true
}

// MarkDropped records an undecodable frame.
func (s *Store) MarkDropped() {
	s.mu.Lock()
	s.stats.FramesReceived++
	s.stats.FramesDropped++
	s.mu.Unlock()
}

// BeginSurvey switches to survey accumulation for the given cell,
// resetting the accumulators.
func (s *Store) BeginSurvey(cell int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mode = ModeSurvey
	s.cell = cell
	s.resetAccLocked()
}

// BeginVacant switches to vacant accumulation.
func (s *Store) BeginVacant() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mode = ModeVacant
	s.resetAccLocked()
}

// EndPass returns the per-link mean of the finished pass along with the
// surveyed cell (-1 for a vacant pass) and switches back to ModeLive.
// Links that contributed no samples report NaN-free zero means and a
// false ok flag per link via the counts slice.
func (s *Store) EndPass() (means []float64, counts []int, cell int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	means = make([]float64, s.m)
	counts = append([]int(nil), s.accCount...)
	for i := 0; i < s.m; i++ {
		if s.accCount[i] > 0 {
			means[i] = s.accSum[i] / float64(s.accCount[i])
		}
	}
	cell = -1
	switch s.mode {
	case ModeSurvey:
		cell = s.cell
		s.stats.SurveyPasses++
	case ModeVacant:
		s.stats.VacantPasses++
	}
	s.mode = ModeLive
	s.resetAccLocked()
	return means, counts, cell
}

// PassCounts returns how many samples each link has contributed to the
// pass in progress.
func (s *Store) PassCounts() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.accCount...)
}

// LiveVector returns the mean of each link's live window. ok is false
// when any link has an empty window.
func (s *Store) LiveVector() (y []float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	y = make([]float64, s.m)
	ok = true
	for i := 0; i < s.m; i++ {
		if len(s.live[i]) == 0 {
			ok = false
			continue
		}
		var sum float64
		for _, v := range s.live[i] {
			sum += v
		}
		y[i] = sum / float64(len(s.live[i]))
	}
	return y, ok
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) resetAccLocked() {
	for i := range s.accSum {
		s.accSum[i] = 0
		s.accCount[i] = 0
	}
}

// WaitForCounts polls until every link has at least want samples in the
// current pass or the timeout elapses; it reports whether the condition
// was met. Polling keeps the store free of condition variables on the
// hot ingest path.
func (s *Store) WaitForCounts(want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		counts := s.PassCounts()
		done := true
		for _, c := range counts {
			if c < want {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
