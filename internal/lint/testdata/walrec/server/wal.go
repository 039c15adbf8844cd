// Fixture for the walrec analyzer: one clean record type, one no record
// struct claims, and one with no replay case.
package server

type walRecType byte

const (
	walRecA walRecType = 1
	walRecB walRecType = 2 // want `WAL record type walRecB is named in no \[typ\] method`
	walRecC walRecType = 3 // want `WAL record type walRecC has no replay-switch case`
)

type recA struct{}

func (recA) typ() walRecType { return walRecA }

type recC struct{}

func (recC) typ() walRecType { return walRecC }

func decode(t walRecType) any {
	switch t {
	case walRecA:
		return recA{}
	case walRecB:
		return nil
	default:
		return nil
	}
}
