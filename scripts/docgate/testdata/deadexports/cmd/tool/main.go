// Command tool references the fixture's used exports.
package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/b"
)

func main() { fmt.Println(a.Used(), b.B(a.T{})) }
