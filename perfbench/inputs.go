package main

import (
	"math"
	"math/rand/v2"
	"time"

	"tafloc/internal/geom"
	"tafloc/internal/rf"
)

// Inputs come from the seed alone. The rooms (deployments and their
// calibration surveys) are fixed configuration of the service under test;
// the seed draws what the service is offered: the walker's path, the
// measurement noise of each sweep, the zone popularity, and the arrival
// times.

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// walk returns n positions of a random-waypoint walker inside a w x h
// room, moving step metres per sweep and keeping margin metres from the
// walls.
func walk(r *rand.Rand, w, h, margin, step float64, n int) []geom.Point {
	waypoint := func() geom.Point {
		return geom.Point{X: margin + r.Float64()*(w-2*margin), Y: margin + r.Float64()*(h-2*margin)}
	}
	p, target := waypoint(), waypoint()
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = p
		dx, dy := target.X-p.X, target.Y-p.Y
		d := math.Hypot(dx, dy)
		if d <= step {
			p, target = target, waypoint()
			continue
		}
		p.X += dx / d * step
		p.Y += dy / d * step
	}
	return out
}

// sweep returns one noisy, quantized RSS sample per link for a target at
// p, drawing the noise from r with the channel's own noise model. The
// channel's sampler is left to the calibration surveys, which run on
// another goroutine in the refresh workload.
func sweep(ch *rf.Channel, r *rand.Rand, p geom.Point, days float64) []float64 {
	prm := ch.Params()
	out := make([]float64, ch.M())
	for i := range out {
		v := ch.TargetRSS(i, p, days) + r.NormFloat64()*prm.NoiseStdDB
		if q := prm.QuantizeDB; q > 0 {
			v = math.Round(v/q) * q
		}
		out[i] = v
	}
	return out
}

// path is a ring of sweeps along one walk: sweep k of a generator is
// ys[k%len], taken with the walker at pos[k%len].
type path struct {
	pos []geom.Point
	ys  [][]float64
}

func newPath(ch *rf.Channel, r *rand.Rand, step float64, n int, days float64) path {
	g := ch.Grid()
	pos := walk(r, g.Width, g.Height, 0.3, step, n)
	ys := make([][]float64, n)
	for k, p := range pos {
		ys[k] = sweep(ch, r, p, days)
	}
	return path{pos: pos, ys: ys}
}

// periodic returns the due offsets of a fixed-rate schedule over d.
func periodic(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// poisson returns the due offsets of a Poisson arrival process of the
// given rate over d: independent users, as opposed to a sensor's fixed
// sweep cadence.
func poisson(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// pace runs an open-loop schedule: send(i) is called for each due offset
// at (or, when the generator is behind, as soon as possible after)
// start+due[i], never waiting for the service. It returns the lateness of
// every send against its due time. stop ends the schedule early.
//
// While the process is idle the Go runtime wakes a sleeping goroutine
// only at millisecond granularity, so a generator that sleeps between
// batches runs up to a millisecond late; that lateness is part of every
// latency measured from the due time, and gen.lag_* reports it.
//
// With catchUp > 0, a generator that fell behind (the process was frozen
// for a while) drains its backlog at no more than catchUp sends per
// second, in bursts of at most paceBurst, the way a sensor's radio drains
// its buffer; with catchUp 0 it sends the whole backlog at once. Either
// way every send keeps its scheduled due time.
func pace(start time.Time, due []time.Duration, catchUp float64, stop <-chan struct{}, send func(i int, dueAt time.Time)) []time.Duration {
	lag := make([]time.Duration, 0, len(due))
	var gap time.Duration
	if catchUp > 0 {
		gap = time.Duration(float64(time.Second) / catchUp)
	}
	var tat time.Time // theoretical arrival time of the catch-up rate
	for i, off := range due {
		at := start.Add(off)
		wake := at
		if gap > 0 {
			if w := tat.Add(-paceBurst * gap); w.After(wake) {
				wake = w
			}
		}
		if d := time.Until(wake); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop:
			return lag
		default:
		}
		now := time.Now()
		lag = append(lag, now.Sub(at))
		send(i, at)
		if gap > 0 {
			if tat.Before(now) {
				tat = now
			}
			tat = tat.Add(gap)
		}
	}
	return lag
}

// paceBurst is the most sends a catching-up generator makes back to back.
const paceBurst = 32
