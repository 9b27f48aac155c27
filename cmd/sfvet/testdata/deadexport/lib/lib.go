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

// OtherTestUsed is referenced only by another package's test.
func OtherTestUsed() {}

// Generic is referenced, instantiated, by another package.
func Generic[T any](v T) T { return v }

// T has a method nothing calls: methods are out of scope.
type T struct{ Field int }

// Method is never called.
func (T) Method() {}
