package stats

// Welford is a streaming mean/variance accumulator using Welford's online
// algorithm. It is numerically stable for long runs (millions of rounds) and
// requires O(1) memory. The zero value is an empty accumulator.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe adds one sample.
func (w *Welford) Observe(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of samples observed.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 if no samples were observed.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or 0 for fewer than two
// samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Min returns the smallest observed sample, or 0 if empty.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observed sample, or 0 if empty.
func (w *Welford) Max() float64 { return w.max }

// Merge combines another accumulator into w using Chan et al.'s parallel
// update, so per-goroutine accumulators can be reduced without bias.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.mean += delta * float64(o.n) / float64(n)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}
