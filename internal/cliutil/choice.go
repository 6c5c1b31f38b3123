// Package cliutil provides small flag helpers shared by the jord
// command-line tools, so every binary rejects invalid flag values at parse
// time — with usage and a non-zero exit — instead of discovering them (or
// silently misinterpreting them) mid-run.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"
)

// Choice is a flag.Value restricted to a fixed set of values. Set returns
// an error for anything outside the set, which the flag package reports
// alongside usage before exiting with status 2.
type Choice struct {
	value   string
	allowed []string
}

// NewChoice builds a Choice with a default value and its allowed set. The
// default must itself be allowed (programmer error otherwise — it panics).
func NewChoice(def string, allowed ...string) *Choice {
	c := &Choice{value: def, allowed: allowed}
	if !c.ok(def) {
		panic(fmt.Sprintf("cliutil: default %q not in allowed set %v", def, allowed))
	}
	return c
}

func (c *Choice) ok(s string) bool {
	for _, a := range c.allowed {
		if s == a {
			return true
		}
	}
	return false
}

// String returns the current value (flag.Value).
func (c *Choice) String() string {
	if c == nil {
		return ""
	}
	return c.value
}

// Set validates and stores a parsed value (flag.Value).
func (c *Choice) Set(s string) error {
	if !c.ok(s) {
		return fmt.Errorf("must be one of %s", c.Allowed())
	}
	c.value = s
	return nil
}

// Value returns the selected value.
func (c *Choice) Value() string { return c.value }

// Allowed renders the allowed set as "a|b|c" for usage strings; an empty
// string in the set renders as a pair of single quotes so optional
// choices stay visible.
func (c *Choice) Allowed() string {
	parts := make([]string, len(c.allowed))
	for i, a := range c.allowed {
		if a == "" {
			a = "''"
		}
		parts[i] = a
	}
	return strings.Join(parts, "|")
}

// NonNegInt is a flag.Value for integers that must be >= 0; negative or
// malformed input fails Set, so the flag package prints usage and exits 2.
type NonNegInt struct {
	value int
}

// NewNonNegInt builds a NonNegInt with a default (which must be >= 0).
func NewNonNegInt(def int) *NonNegInt {
	if def < 0 {
		panic(fmt.Sprintf("cliutil: negative default %d", def))
	}
	return &NonNegInt{value: def}
}

// String returns the current value (flag.Value).
func (n *NonNegInt) String() string {
	if n == nil {
		return "0"
	}
	return strconv.Itoa(n.value)
}

// Set validates and stores a parsed value (flag.Value).
func (n *NonNegInt) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("not an integer: %q", s)
	}
	if v < 0 {
		return fmt.Errorf("must be >= 0, got %d", v)
	}
	n.value = v
	return nil
}

// Value returns the parsed value.
func (n *NonNegInt) Value() int { return n.value }
