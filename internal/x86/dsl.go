package x86

// Structured control-flow combinators over the assembler. Guest
// programs (the mini-kernel and the rsync workload) are written in Go
// functions that emit x86-64 code; these helpers keep that code
// readable while still producing ordinary branch instructions that the
// simulator's front end must predict like any compiler output.

// IfThen emits code so body runs only when cond held at the preceding
// comparison instruction.
func (a *Assembler) IfThen(cond Cond, body func()) {
	skip := a.NewLabel()
	a.Jcc(cond.Negate(), skip)
	body()
	a.Bind(skip)
}

// IfElse emits a two-armed conditional on cond.
func (a *Assembler) IfElse(cond Cond, then, els func()) {
	elseL := a.NewLabel()
	done := a.NewLabel()
	a.Jcc(cond.Negate(), elseL)
	then()
	a.Jmp(done)
	a.Bind(elseL)
	els()
	a.Bind(done)
}

// While emits a top-tested loop. cond emits the comparison and returns
// the condition under which the loop continues.
func (a *Assembler) While(cond func() Cond, body func()) {
	top := a.Mark()
	exit := a.NewLabel()
	c := cond()
	a.Jcc(c.Negate(), exit)
	body()
	a.Jmp(top)
	a.Bind(exit)
}

// Forever emits an infinite loop around body; body may escape via
// labels of its own (e.g. a Ret or a bound exit label).
func (a *Assembler) Forever(body func()) {
	top := a.Mark()
	body()
	a.Jmp(top)
}

// Func binds a label at the current position and emits a function body;
// the body is responsible for its own Ret. Returns the entry label.
func (a *Assembler) Func(body func()) Label {
	entry := a.Mark()
	body()
	return entry
}
