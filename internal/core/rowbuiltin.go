package core

import "math"

// The pull folds of the Builtin semirings: rowAccumulate's second- and
// general-form loops — one per input layout (words or dense), folding from Id in row order —
// with ⊕ and ⊗ written out instead of called through closures, so the
// compiler inlines them. Here the row, not the edge, pays the dispatch.

// put stores row i's fold the way rowAccumulate's tail does and returns
// what rowAccumulate does.
func (p *pullOps[T]) put(i int, acc T, any bool, examined int) (bool, int) {
	if any {
		p.w[i] = acc
	}
	p.wPresent[i] = any
	return any, examined
}

// plusSecondRow is (+, second) over float64, which has no terminal.
func plusSecondRow(p *pullOps[float64], i int) (bool, int) {
	ind, u := p.g.Ind[p.g.Ptr[i]:p.g.Ptr[i+1]], p.uVal
	acc, any := p.sr.Id, false
	if p.uWords != nil {
		for _, j := range ind {
			if BitsetGet(p.uWords, int(j)) {
				acc, any = acc+u[j], true
			}
		}
	} else {
		any = len(ind) > 0
		for _, j := range ind {
			acc += u[j]
		}
	}
	return p.put(i, acc, any, len(ind))
}

// minSecondRow is (min, second) over uint32, which has no terminal.
func minSecondRow(p *pullOps[uint32], i int) (bool, int) {
	ind, u := p.g.Ind[p.g.Ptr[i]:p.g.Ptr[i+1]], p.uVal
	acc, any := p.sr.Id, false
	if p.uWords != nil {
		for _, j := range ind {
			if BitsetGet(p.uWords, int(j)) {
				acc, any = min(acc, u[j]), true
			}
		}
	} else {
		any = len(ind) > 0
		for _, j := range ind {
			acc = min(acc, u[j])
		}
	}
	return p.put(i, acc, any, len(ind))
}

// minIndexRow is (min, secondi) over uint32: ⊗ yields the input index j.
// The row is sorted, so its first present j is the minimum (a dense input
// stores every position: the row's first entry); the row stops there when
// the call keeps the terminal and scans on, keeping that j, when it does not.
func minIndexRow(p *pullOps[uint32], i int) (bool, int) {
	ind := p.g.Ind[p.g.Ptr[i]:p.g.Ptr[i+1]]
	k := 0
	if p.uWords != nil {
		for k < len(ind) && !BitsetGet(p.uWords, int(ind[k])) {
			k++
		}
	}
	if k == len(ind) {
		return p.put(i, 0, false, len(ind))
	}
	examined := len(ind)
	if p.sr.Terminal != nil {
		examined = k + 1
	}
	return p.put(i, min(p.sr.Id, ind[k]), true, examined)
}

// minPlusRow is (math.Min, +) over float64: acc = min(acc, G(i,j) + u(j)),
// the product's operands in Mul's order, stopping at the terminal (−∞)
// when the call keeps it.
func minPlusRow(p *pullOps[float64], i int) (bool, int) {
	lo, hi := p.g.Ptr[i], p.g.Ptr[i+1]
	ind, val, u, term := p.g.Ind[lo:hi], p.g.Val[lo:hi], p.uVal, p.sr.Terminal
	acc, any, examined := p.sr.Id, false, len(ind)
	if p.uWords != nil {
		for k, j := range ind {
			if BitsetGet(p.uWords, int(j)) {
				acc, any = minFloat64(acc, val[k]+u[j]), true
				if term != nil && acc == *term {
					examined = k + 1
					break
				}
			}
		}
	} else {
		any = len(ind) > 0
		for k, j := range ind {
			acc = minFloat64(acc, val[k]+u[j])
			if term != nil && acc == *term {
				examined = k + 1
				break
			}
		}
	}
	return p.put(i, acc, any, examined)
}

// minFloat64 is math.Min bit for bit with the ordered case inlined. The
// builtin min is not: it differs on NaN payloads and on min(NaN, −∞).
func minFloat64(a, b float64) float64 {
	switch {
	case a < b:
		return a
	case b < a:
		return b
	}
	return math.Min(a, b) // equal, ±0 or NaN
}
