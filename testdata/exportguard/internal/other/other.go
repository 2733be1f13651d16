// Package other is a package whose tests use kit's seam.
package other

// Twice doubles n.
func Twice(n int) int { return 2 * n }
