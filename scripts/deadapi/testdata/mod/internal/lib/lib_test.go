package lib

import "testing"

func TestOnlyTests(t *testing.T) { TestOnly() }
