package simrun

// Runner runs.
type Runner struct{ cfg Config }

func (r *Runner) step() int {
	if r.cfg.Gray != nil { // want
		return 0
	}
	return r.cfg.Workers
}
