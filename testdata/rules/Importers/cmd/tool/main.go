// Command tool imports used.
package main

import "fixture/Importers/internal/used"

func main() { println(used.N) }
