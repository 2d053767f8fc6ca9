// Package pooldisciplinebad violates the free-list ownership protocol:
// pooled values leak on some path, are double-released, or are overwritten
// while still owned.
package pooldisciplinebad

import (
	"fusion/internal/acc"
	"fusion/internal/mesi"
)

type ctrl struct {
	pool *mesi.MsgPool
}

// branchLeak forgets the release on the flag=false arm.
func (c *ctrl) branchLeak(flag bool) {
	m := c.pool.Get() // want "not released on every path"
	if flag {
		c.pool.Put(m)
	}
}

// loopLeak only releases when the loop body runs.
func (c *ctrl) loopLeak(n int) {
	m := c.pool.Get() // want "not released on every path"
	for i := 0; i < n; i++ {
		c.pool.Put(m)
		return
	}
}

// double releases twice on the flag=true path.
func (c *ctrl) double(flag bool) {
	m := c.pool.Get()
	if flag {
		c.pool.Put(m)
	}
	c.pool.Put(m) // want "static double release"
}

// overwrite drops the first message by re-acquiring into the same variable.
func (c *ctrl) overwrite() {
	m := c.pool.Get()
	m = c.pool.Get() // want "overwritten by a new acquisition"
	c.pool.Put(m)
}

// tileLeak exercises the acc pool: the early return leaks.
func tileLeak(p *acc.TileMsgPool, flag bool) {
	m := p.Get() // want "not released on every path"
	if flag {
		return
	}
	p.Put(m)
}
