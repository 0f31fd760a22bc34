package bench

import "fixture/Callers/internal/lib"

func run() { lib.Thing{}.Benched() }
