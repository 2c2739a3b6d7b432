// Package nestedmod is a tianhelint loader fixture: a module whose inner/
// subdirectory holds its own go.mod. LoadAll must load this package and
// sub, and never the nested module.
package nestedmod

// Answer is clean code the loader must see.
func Answer() int { return 42 }
