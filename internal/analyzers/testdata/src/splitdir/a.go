// Package splitdir is a tianhelint loader fixture: its files sort on both
// sides of the mid/ subpackage directory (a.go < mid/ < z.go), so a walk
// of the tree meets this directory twice. LoadAll must load it once.
package splitdir

// A is clean code the loader must see.
func A() int { return 1 }
