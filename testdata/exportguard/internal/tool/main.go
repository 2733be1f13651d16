// Command tool is a main package: its exported names are exempt.
package main

// Exported has no caller.
func Exported() {}

func main() {}
