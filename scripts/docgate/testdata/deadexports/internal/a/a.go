// Package a holds one export of each kind the dead-export check judges.
package a

func Used() int        { return 1 } // called from cmd/tool
func OwnTestOnly() int { return 2 } // called only from a's own tests: flagged
func Helper() int      { return 3 } // called only from b's tests: passes
func Allowed() int     { return 4 } // called only from a's own tests, but allowlisted

type T struct{} // used by cmd/tool

func (T) String() string { return "t" } // satisfies fmt.Stringer: passes
func (T) Size() int      { return 0 }   // satisfies b.Sizer: passes
func (T) Dead()          {}             // called only from a's own tests: flagged
