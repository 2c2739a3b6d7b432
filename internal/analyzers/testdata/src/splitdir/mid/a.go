// Package mid is the subpackage that splits the fixture's root files.
package mid

// M is clean code the loader must see.
func M() int { return 13 }
