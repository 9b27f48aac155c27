package analysis

import "go/types"

// FactStore records boolean facts about program objects across package
// boundaries. One store lives for one Run; the loader hands every
// dependent the very *types.Package it checked, so an object is the same
// pointer in the package that declares it and in every package that uses
// it, and facts are keyed by that identity.
type FactStore struct {
	facts map[types.Object]map[string]bool
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[types.Object]map[string]bool{}}
}

// declared folds a generic instantiation onto the function it was
// declared as, the object facts are recorded about.
func declared(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// Set records fact about obj.
func (s *FactStore) Set(obj types.Object, fact string) {
	obj = declared(obj)
	if s.facts[obj] == nil {
		s.facts[obj] = map[string]bool{}
	}
	s.facts[obj][fact] = true
}

// Has reports whether fact is recorded about obj.
func (s *FactStore) Has(obj types.Object, fact string) bool {
	return s.facts[declared(obj)][fact]
}
