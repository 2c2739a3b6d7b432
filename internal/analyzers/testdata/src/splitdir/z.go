package splitdir

// Z is clean code the loader must see.
func Z() int { return 26 }
