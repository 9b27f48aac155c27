// Package libtest is a test-support package: its name ends in "test", so
// another package's test file counts as a user of its exports.
package libtest

// Helper is referenced only by another package's test.
func Helper() int { return 1 }

// OwnTestOnly is referenced only by libtest's own test: reported.
func OwnTestOnly() {}

// Fixture has a method only another package's test calls.
type Fixture struct{}

// Check is called only by another package's test.
func (Fixture) Check() bool { return true }
