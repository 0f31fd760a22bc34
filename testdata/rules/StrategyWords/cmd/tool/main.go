// Command tool parses strategy words of its own.
package main

import (
	"fmt"
	"os"

	"fixture/StrategyWords/internal/strategy"
)

const rt = "pre-partition"

func main() {
	switch os.Args[1] {
	case "real-time": // want
		fmt.Println(strategy.Parse("real-time"))
	case "x", "local": // want
	case rt: // want
	case "other":
	}
}
