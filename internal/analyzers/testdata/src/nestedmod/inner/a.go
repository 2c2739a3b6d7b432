// Package inner is a separate module nested in the fixture. It reads the
// wall clock, so loading it would surface a nowalltime finding.
package inner

import "time"

// Stamp reads the wall clock.
func Stamp() time.Time { return time.Now() }
