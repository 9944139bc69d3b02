package algo

import (
	"github.com/gmrl/househunt/internal/rng"
)

// testSrc returns a fresh deterministic source for unit tests.
func testSrc(seed uint64) *rng.Source { return rng.New(seed) }

// testKey returns a fresh deterministic agent key for unit tests.
func testKey(seed uint64) rng.Key { return rng.New(seed).Key() }
