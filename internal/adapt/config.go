package adapt

import "fmt"

// Config parameterizes a Tuner. The zero value selects defaults suitable for
// a live node; DefaultConfig spells them out.
type Config struct {
	// SketchWidth is the count-min sketch's width (rounded up to a power
	// of two), sketchDepth rows deep. Default 1<<14: 512 KiB of counters,
	// collision error ≲ 2e/width of a window's volume.
	SketchWidth int
	// TopK is the heavy-hitters list capacity feeding the Zipf fit.
	// Default 256 — the fit is dominated by the head, and 256 ranks pin
	// the exponent to well under the ±50% the §5.1.1 sensitivity analysis
	// tolerates.
	TopK int
	// DistinctBits sizes the linear-counting bitmap per window. Default
	// 1<<14 (2 KiB per window), accurate to a few percent up to ~16k
	// distinct keys per window.
	DistinctBits int
	// TTLMax caps the recommended keyTtl, in rounds (it is clamped to
	// [ttlMin, TTLMax]). Default 86400, one day of one-second rounds.
	// It also caps the recommendation when fMin estimates to zero
	// (maintenance-free indexing: everything is worth keeping).
	TTLMax int
}

const (
	// sketchDepth is the count-min sketch's number of rows.
	sketchDepth = 4
	// universeWindows is how many retune periods one generation of the
	// distinct-key bitmap spans, so the estimate covers 8–16 periods. The
	// key universe feeds the Zipf normalization, whose fixed point is far
	// more sensitive to undercounting than the per-key rates are — and
	// unlike rates, the universe changes slowly, so it earns a longer
	// horizon than the frequency sketches.
	universeWindows = 8
	// ttlMin is the floor of the recommended keyTtl, in rounds.
	ttlMin = 1
)

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{
		SketchWidth:  1 << 14,
		TopK:         256,
		DistinctBits: 1 << 14,
		TTLMax:       86400,
	}
}

// setDefaults fills zero fields.
func (c *Config) setDefaults() {
	d := DefaultConfig()
	if c.SketchWidth == 0 {
		c.SketchWidth = d.SketchWidth
	}
	if c.TopK == 0 {
		c.TopK = d.TopK
	}
	if c.DistinctBits == 0 {
		c.DistinctBits = d.DistinctBits
	}
	if c.TTLMax == 0 {
		c.TTLMax = d.TTLMax
	}
}

func (c Config) validate() error {
	if c.TTLMax < ttlMin {
		return fmt.Errorf("adapt: TTLMax %d below %d", c.TTLMax, ttlMin)
	}
	return nil
}
