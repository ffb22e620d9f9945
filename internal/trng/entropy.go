package trng

import (
	"crypto/sha256"
	"encoding/binary"

	"drstrange/internal/prng"
)

// CellArray models the reserved DRAM rows a timing-violation TRNG reads
// from. Manufacturing process variation gives every cell a latent
// probability of reading 1 under violated timing; most cells are
// strongly biased (they almost always fail or almost never fail) and a
// minority sit near 0.5 — those are the "RNG cells" D-RaNGe's
// characterization step selects.
//
// The array is the simulator's stand-in for real silicon: sampling a
// cell is a Bernoulli draw from its latent probability, driven by a
// deterministic simulation PRNG standing in for physical noise.
type CellArray struct {
	probs []float64
	noise *prng.Xoshiro256
}

// NewCellArray builds an array of n cells whose latent probabilities
// follow the bimodal-with-metastable-tail shape real DRAM exhibits:
// ~45% stuck near 0, ~45% stuck near 1, ~10% spread around 0.5.
func NewCellArray(n int, seed uint64) *CellArray {
	shape := prng.NewXoshiro256(seed)
	probs := make([]float64, n)
	for i := range probs {
		switch r := shape.Float64(); {
		case r < 0.45:
			probs[i] = clamp01(shape.Normal(0.02, 0.015))
		case r < 0.90:
			probs[i] = clamp01(shape.Normal(0.98, 0.015))
		default:
			probs[i] = clamp01(shape.Normal(0.5, 0.08))
		}
	}
	return &CellArray{
		probs: probs,
		noise: prng.NewXoshiro256(seed ^ 0x5DEECE66D),
	}
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Len returns the number of cells.
func (c *CellArray) Len() int { return len(c.probs) }

// Sample reads cell i under violated timing and returns the (noisy)
// bit.
func (c *CellArray) Sample(i int) uint64 {
	if c.noise.Bernoulli(c.probs[i]) {
		return 1
	}
	return 0
}

// SelectRNGCells runs D-RaNGe's characterization step: it returns the
// indices of cells whose latent one-probability lies in
// [0.5-tol, 0.5+tol]. Real characterization estimates the probability
// from repeated reads; the simulator can consult the latent value
// directly, which models a perfect (long) characterization pass.
func (c *CellArray) SelectRNGCells(tol float64) []int {
	var sel []int
	for i, p := range c.probs {
		if p >= 0.5-tol && p <= 0.5+tol {
			sel = append(sel, i)
		}
	}
	return sel
}

// Generator turns a CellArray into a stream of random words using a
// mechanism-specific extraction pipeline. It is the entropy backend of
// the application interface: the memory controller accounts for the
// *timing* of bit generation (Mechanism); the Generator supplies the
// *values*.
type Generator struct {
	cells *CellArray
	// rngCells indexes the selected near-0.5 cells (D-RaNGe path).
	rngCells []int
	next     int
	// conditioned output buffer (QUAC path).
	condition bool
	outBuf    []byte
	outOff    int
}

// NewDRaNGeGenerator returns a generator that reads selected RNG cells
// directly, as D-RaNGe does. Cells within ±tolerance tol of 0.5 pass
// characterization; D-RaNGe applies no further conditioning because the
// selected cells are individually near-unbiased.
func NewDRaNGeGenerator(cells *CellArray, tol float64) *Generator {
	sel := cells.SelectRNGCells(tol)
	if len(sel) == 0 {
		// Degenerate arrays (tiny n) still must produce output;
		// fall back to every cell + conditioning.
		return NewQUACGenerator(cells)
	}
	return &Generator{cells: cells, rngCells: sel}
}

// NewQUACGenerator returns a generator that reads raw (biased) cells
// and conditions 512-bit blocks through SHA-256, as QUAC-TRNG does.
func NewQUACGenerator(cells *CellArray) *Generator {
	return &Generator{cells: cells, condition: true}
}

// Word64 produces the next 64-bit true random word.
func (g *Generator) Word64() uint64 {
	if g.condition {
		return g.conditionedWord()
	}
	var w uint64
	for i := 0; i < 64; i++ {
		cell := g.rngCells[g.next]
		g.next = (g.next + 1) % len(g.rngCells)
		w = w<<1 | g.cells.Sample(cell)
	}
	return w
}

// conditionedWord refills the SHA-256 output buffer from 512 raw cell
// reads when empty and serves 64-bit words from it.
func (g *Generator) conditionedWord() uint64 {
	if g.outOff+8 > len(g.outBuf) {
		var raw [64]byte // 512 raw bits
		for i := range raw {
			var b byte
			for j := 0; j < 8; j++ {
				idx := g.next
				g.next = (g.next + 1) % g.cells.Len()
				b = b<<1 | byte(g.cells.Sample(idx))
			}
			raw[i] = b
		}
		sum := sha256.Sum256(raw[:])
		g.outBuf = sum[:]
		g.outOff = 0
	}
	w := binary.LittleEndian.Uint64(g.outBuf[g.outOff:])
	g.outOff += 8
	return w
}

// Fill writes len(p) random bytes into p.
func (g *Generator) Fill(p []byte) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, g.Word64())
		p = p[8:]
	}
	if len(p) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], g.Word64())
		copy(p, tail[:])
	}
}
