package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/policyspec"
	"repro/internal/rng"
	"repro/internal/slotsim"
)

// policyReset derives the per-instance reset for a pooled policy: the
// Q-DPM learner rebinds its exploration stream; the classical policies
// restore their (possibly empty) adaptive state and ignore the stream.
// Reset-then-run is bit-identical to constructing fresh, which is what
// keeps instance turnover allocation-free.
func policyReset(pol slotsim.Policy) (func(*rng.Stream), error) {
	switch p := pol.(type) {
	case *core.Manager:
		return p.Reset, nil
	case interface{ Reset() }:
		return func(*rng.Stream) { p.Reset() }, nil
	default:
		return nil, fmt.Errorf("fleet: policy %s is not resettable", pol.Name())
	}
}

// ParseMix parses a fleet mix string: comma-separated classes of the
// form
//
//	device:dist:rate:policy[:weight]
//
// where device is a catalog name (device.Lookup), dist a dist.ByName
// key, rate the arrival rate in requests/second, policy a policyspec
// spec (optionally parameterized, e.g. timeout=8; q-dpm:tracking keeps
// its colon), and weight the class's integer share of instances
// (default 1). Example:
//
//	hdd:exp:0.08:timeout=8:2,wlan:hyperexp:2:q-dpm:1
func ParseMix(s string) ([]Class, error) {
	var out []Class
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		// A policy name may hold a colon (q-dpm:tracking).
		if len(f) > 4 {
			if _, err := policyspec.Parse(f[3] + ":" + f[4]); err == nil {
				f[4] = f[3] + ":" + f[4]
				f = append(f[:3], f[4:]...)
			}
		}
		if len(f) != 4 && len(f) != 5 {
			return nil, fmt.Errorf("fleet: mix entry %q: want device:dist:rate:policy[:weight]", part)
		}
		dev, err := device.Lookup(f[0])
		if err != nil {
			return nil, fmt.Errorf("fleet: mix entry %q: %w", part, err)
		}
		rate, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: mix entry %q: bad rate %q", part, f[2])
		}
		c := Class{Device: dev, Dist: f[1], RatePerSec: rate, Policy: f[3], Weight: 1}
		if len(f) == 5 {
			w, err := strconv.Atoi(f[4])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("fleet: mix entry %q: bad weight %q", part, f[4])
			}
			c.Weight = w
		}
		if err := c.validate(len(out)); err != nil {
			return nil, fmt.Errorf("fleet: mix entry %q: %w", part, err)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: empty mix")
	}
	return out, nil
}

// DefaultMix returns the canonical heterogeneous fleet: laptop disks
// under sparse Poisson traffic with an 8-slot timeout, WLAN NICs under
// bursty hyperexponential traffic running Q-DPM, sensor radios under
// heavy-tailed Pareto traffic with greedy shutdown, and the paper's
// synthetic3 device at its canonical load running Q-DPM.
func DefaultMix() []Class {
	mk := func(name, dist string, rate float64, pol string, weight int) Class {
		dev, err := device.Lookup(name)
		if err != nil {
			panic("fleet: default mix device: " + err.Error())
		}
		return Class{Device: dev, Dist: dist, RatePerSec: rate, Policy: pol, Weight: weight}
	}
	return []Class{
		mk("hdd", "exp", 0.08, "timeout=8", 2),
		mk("wlan", "hyperexp", 2, "q-dpm", 2),
		mk("sensor-radio", "pareto", 5, "greedy-off", 1),
		mk("synthetic3", "exp", 0.2, "q-dpm", 3),
	}
}
