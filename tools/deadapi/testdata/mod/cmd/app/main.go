package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var p lib.Pinger = lib.Named{}
	fmt.Println(lib.Used(), p.Ping(), lib.Status(1))
	var x any = &lib.Literal{}
	if v, ok := x.(interface{ Poke() }); ok {
		v.Poke()
	}
}
