// Package lib holds one export of each kind the dead-export gate judges.
package lib

// Unused is referenced by nothing: reported.
func Unused() {}

// OwnTestOnly is referenced only by lib's in-package test: reported.
const OwnTestOnly = 1

// XTestOnly is referenced only by lib's external test package: reported.
var XTestOnly = 2

// SelfUsed is referenced by a non-test file of its own package.
type SelfUsed int

// ProdUsed is referenced by a non-test file of another package.
func ProdUsed() SelfUsed { return 0 }

// MainUsed is referenced only by package main.
func MainUsed() {}

// OtherTestUsed is referenced only by another package's test, and lib is
// not a test-support package: reported.
func OtherTestUsed() {}

// Generic is referenced, instantiated, by another package.
func Generic[T any](v T) T { return v }

// T has methods of each kind the gate judges by their callers. Its field
// is never read: fields are out of scope.
type T struct{ Field int }

// Method is never called: reported.
func (T) Method() {}

// OwnTestMethod is called only by lib's in-package test: reported.
func (T) OwnTestMethod() {}

// OtherTestMethod is called only by another package's test: reported.
func (T) OtherTestMethod() {}

// Shape is an interface the module declares.
type Shape interface{ Area() int }

// Square is used only as a Shape.
type Square int

// Area is called only through the Shape interface.
func (s Square) Area() int { return int(s) * int(s) }

// Label is formatted by fmt, which finds its String method at run time.
type Label string

// String is called by no code statically.
func (l Label) String() string { return "label " + string(l) }

// Box is a generic type.
type Box[V any] struct{ v V }

// Get is called on Box[int] only.
func (b Box[V]) Get() V { return b.v }

// Level is handed to flag.FlagSet.Var, whose parameter is a flag.Value.
type Level int

// Set is called only through flag.Value, an interface no code here names.
func (l *Level) Set(s string) error { *l = Level(len(s)); return nil }

// String is found by fmt and flag at run time.
func (l *Level) String() string { return "level" }

// Bag has a Len, and the module uses sort.Interface, which declares Len;
// Bag does not implement it.
type Bag []int

// Len is called only by lib's in-package test: reported.
func (b Bag) Len() int { return len(b) }
