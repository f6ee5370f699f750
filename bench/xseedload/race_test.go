//go:build race

package main

// The race detector slows the smoke runs severalfold.
func init() { smokeBudget = 0 }
