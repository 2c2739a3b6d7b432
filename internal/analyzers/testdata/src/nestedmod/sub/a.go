// Package sub is part of the fixture's root module.
package sub

// Double is clean code the loader must see.
func Double(x int) int { return 2 * x }
