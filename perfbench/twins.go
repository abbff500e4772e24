package main

import "repro/sct"

// twin is a goroutine-harness program written op-for-op like a corpus
// program, so both frontends must induce the same schedule space.
type twin struct {
	original string
	build    func() *sct.Program
}

// twins lists the harness-twins workload's programs: a coarse-lock
// member, a bank member, a racy member (so the workload has a bug to
// find) and the channel mesh. None has a select as the only partner of
// an unbuffered send.
var twins = []twin{
	{"coarse-disjoint-3x2", func() *sct.Program { return coarseDisjointTwin(3, 2) }},
	{"bank-global-3", func() *sct.Program { return bankGlobalTwin(3) }},
	{"account-racy-2", func() *sct.Program { return accountRacyTwin(2) }},
	{"chan-mesh-2p2c", chanMeshTwin},
}

// coarseDisjointTwin: n threads each increment a private counter k
// times inside one global lock.
func coarseDisjointTwin(n, k int) *sct.Program {
	p := sct.NewProgram("coarse-disjoint-3x2-gh").AutoStart()
	g := p.Mutex("g")
	own := make([]sct.Var, n)
	for i := range own {
		own[i] = p.Var("own")
	}
	for i := 0; i < n; i++ {
		v := own[i]
		p.Thread(func(t *sct.G) {
			t.Lock(g)
			for j := 0; j < k; j++ {
				t.Write(v, t.Read(v)+1)
			}
			t.Unlock(g)
		})
	}
	return p
}

// bankGlobalTwin: thread i moves 10 units from account 2i to 2i+1
// under one global lock, then asserts its pair's conservation.
func bankGlobalTwin(n int) *sct.Program {
	p := sct.NewProgram("bank-global-3-gh").AutoStart()
	g := p.Mutex("g")
	acc := make([]sct.Var, 2*n)
	for i := range acc {
		acc[i] = p.Var("acc")
	}
	for i := 0; i < n; i++ {
		from, to := acc[2*i], acc[2*i+1]
		p.Thread(func(t *sct.G) {
			t.Lock(g)
			a := t.Read(from) - 10
			t.Write(from, a)
			b := t.Read(to) + 10
			t.Write(to, b)
			t.Unlock(g)
			t.Assert(a+b == 0)
		})
	}
	return p
}

// accountRacyTwin: n threads deposit into one unlocked account and
// assert their deposit is still visible.
func accountRacyTwin(n int) *sct.Program {
	p := sct.NewProgram("account-racy-2-gh").AutoStart()
	shared := p.Var("shared")
	for i := 0; i < n; i++ {
		p.Thread(func(t *sct.G) {
			r0 := t.Read(shared) + 10
			t.Write(shared, r0)
			r1 := t.Read(shared)
			t.Assert(r1-r0 >= 0)
		})
	}
	return p
}

// chanMeshTwin: two producers and two consumers on one 2-slot channel.
func chanMeshTwin() *sct.Program {
	p := sct.NewProgram("chan-mesh-2p2c-gh").AutoStart()
	c := p.Chan("c", 2)
	sums := []sct.Var{p.Var("sum0"), p.Var("sum1")}
	for _, vals := range [][2]int64{{1, 2}, {3, 4}} {
		p.Thread(func(t *sct.G) {
			t.Send(c, vals[0])
			t.Send(c, vals[1])
		})
	}
	for _, sum := range sums {
		p.Thread(func(t *sct.G) {
			a, _ := t.Recv(c)
			b, _ := t.Recv(c)
			t.Write(sum, a+b)
		})
	}
	return p
}
