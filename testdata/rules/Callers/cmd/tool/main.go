package main

import (
	"fmt"

	"fixture/Callers/internal/lib"
)

func main() {
	fmt.Println(lib.Called(), lib.Thing{})
	lib.Thing{}.Release()
}
