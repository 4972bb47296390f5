package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"tafloc/taflocerr"
)

// Canonical names of the built-in strategies. Third parties may register
// additional names; these are always present.
const (
	// MatcherNN is plain nearest-neighbour matching.
	MatcherNN = "nn"
	// MatcherKNN is inverse-distance-weighted k-NN centroid refinement.
	MatcherKNN = "knn"
	// MatcherBayes is the probabilistic matcher with posterior confidences.
	MatcherBayes = "bayes"
	// MatcherWKNN is the mask-aware weighted k-NN matcher. The
	// observed-entry mask travels in the Model the matcher is applied
	// to, so every WeightedKNNMatcher — built-in or registered under a
	// custom name — weighs measured entries above reconstructed ones on
	// a post-update Model and runs unmasked on a Model without one.
	MatcherWKNN = "wknn"

	// DetectorMAD gates presence on the mean absolute deviation from the
	// vacant baseline (the paper's detector).
	DetectorMAD = "mad"
	// DetectorRMS gates on the root-mean-square deviation, which weighs a
	// single strongly-disturbed link higher than MAD does.
	DetectorRMS = "rms"
	// DetectorMaxLink gates on the single most-disturbed link — the most
	// sensitive choice for sparse deployments where a target shadows only
	// one or two links at a time.
	DetectorMaxLink = "maxlink"
)

// MatcherFactory builds a fresh Matcher instance.
type MatcherFactory func() Matcher

// DetectorFactory builds a presence detector over a vacant baseline and
// a threshold in dB.
type DetectorFactory func(vacant []float64, thresholdDB float64) Presence

// Presence is the detection-gate interface: report whether a live
// measurement vector indicates a target, along with the detection
// signal in dB. Implementations must be safe for concurrent use.
type Presence interface {
	Present(y []float64) (bool, float64)
}

var registry struct {
	mu        sync.RWMutex
	matchers  map[string]MatcherFactory
	detectors map[string]DetectorFactory
}

func init() {
	registry.matchers = map[string]MatcherFactory{
		MatcherNN:    func() Matcher { return NNMatcher{} },
		MatcherKNN:   func() Matcher { return KNNMatcher{} },
		MatcherBayes: func() Matcher { return BayesMatcher{} },
		MatcherWKNN:  func() Matcher { return WeightedKNNMatcher{} },
	}
	registry.detectors = map[string]DetectorFactory{
		DetectorMAD: func(vacant []float64, thr float64) Presence {
			return Detector{Vacant: vacant, ThresholdDB: thr}
		},
		DetectorRMS: func(vacant []float64, thr float64) Presence {
			return RMSDetector{Vacant: vacant, ThresholdDB: thr}
		},
		DetectorMaxLink: func(vacant []float64, thr float64) Presence {
			return MaxLinkDetector{Vacant: vacant, ThresholdDB: thr}
		},
	}
}

// RegisterMatcher installs (or replaces) a named matcher factory, making
// the strategy selectable by name in SystemOptions.MatcherName, serve
// configurations, and command-line flags. Safe for concurrent use.
func RegisterMatcher(name string, f MatcherFactory) error {
	if name == "" || f == nil {
		return fmt.Errorf("core: RegisterMatcher needs a name and a factory")
	}
	registry.mu.Lock()
	registry.matchers[name] = f
	registry.mu.Unlock()
	return nil
}

// RegisterDetector installs (or replaces) a named detector factory.
func RegisterDetector(name string, f DetectorFactory) error {
	if name == "" || f == nil {
		return fmt.Errorf("core: RegisterDetector needs a name and a factory")
	}
	registry.mu.Lock()
	registry.detectors[name] = f
	registry.mu.Unlock()
	return nil
}

// NewMatcherByName builds a matcher from the registry.
func NewMatcherByName(name string) (Matcher, error) {
	registry.mu.RLock()
	f, ok := registry.matchers[name]
	registry.mu.RUnlock()
	if !ok {
		return nil, taflocerr.Errorf(taflocerr.CodeBadRequest,
			"core: unknown matcher %q (registered: %v)", name, MatcherNames())
	}
	return f(), nil
}

// NewDetectorByName builds a presence detector from the registry.
func NewDetectorByName(name string, vacant []float64, thresholdDB float64) (Presence, error) {
	registry.mu.RLock()
	f, ok := registry.detectors[name]
	registry.mu.RUnlock()
	if !ok {
		return nil, taflocerr.Errorf(taflocerr.CodeBadRequest,
			"core: unknown detector %q (registered: %v)", name, DetectorNames())
	}
	return f(vacant, thresholdDB), nil
}

// MatcherNames returns the registered matcher names, sorted.
func MatcherNames() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	names := make([]string, 0, len(registry.matchers))
	for n := range registry.matchers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DetectorNames returns the registered detector names, sorted.
func DetectorNames() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	names := make([]string, 0, len(registry.detectors))
	for n := range registry.detectors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RMSDetector declares a target present when the root-mean-square
// deviation from the vacant baseline exceeds the threshold.
type RMSDetector struct {
	Vacant      []float64
	ThresholdDB float64
}

// Present implements Presence.
func (d RMSDetector) Present(y []float64) (bool, float64) {
	if len(y) != len(d.Vacant) {
		return false, 0
	}
	thr := d.ThresholdDB
	if thr <= 0 {
		thr = 1
	}
	var s float64
	for i := range y {
		diff := y[i] - d.Vacant[i]
		s += diff * diff
	}
	dev := math.Sqrt(s / float64(len(y)))
	return dev > thr, dev
}

// MaxLinkDetector declares a target present when any single link
// deviates from the vacant baseline by more than the threshold.
type MaxLinkDetector struct {
	Vacant      []float64
	ThresholdDB float64
}

// Present implements Presence.
func (d MaxLinkDetector) Present(y []float64) (bool, float64) {
	if len(y) != len(d.Vacant) {
		return false, 0
	}
	thr := d.ThresholdDB
	if thr <= 0 {
		thr = 1
	}
	var dev float64
	for i := range y {
		if diff := math.Abs(y[i] - d.Vacant[i]); diff > dev {
			dev = diff
		}
	}
	return dev > thr, dev
}
