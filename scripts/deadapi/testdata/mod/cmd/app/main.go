package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	lib.Live()
	var v lib.Visitor = lib.NewT()
	v.Visit(1)
	fmt.Println(v)
}
