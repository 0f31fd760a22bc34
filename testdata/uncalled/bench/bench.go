package bench

import "example/internal/lib"

func run() { lib.Thing{}.Benched() }
