package simrun

func run() Result {
	r := Result{PerWorker: make(map[string]int)}
	r.PerWorker = map[string]int{}
	files := map[string]int{} // want
	var n names               // want
	r.PerWorker["w"] = len(files) + len(n)
	return r
}
