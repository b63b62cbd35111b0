// Package b declares an interface and is used by cmd/tool.
package b

type Sizer interface{ Size() int }

func B(s Sizer) int { return s.Size() }
