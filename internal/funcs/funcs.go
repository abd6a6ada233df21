// Package funcs implements the continuous benchmark functions used in the
// paper's evaluation — De Jong's F2, Zakharov, Rosenbrock, Sphere,
// Schaffer's F6 and Griewank — plus several additional standard test
// functions useful for wider experiments.
//
// Every function is exposed as a Function value carrying its name, domain
// bounds, dimensionality conventions and the location/value of the known
// global optimum, so experiments can compute solution quality
// f(best) − f(x*) uniformly. All functions here are minimization problems
// with optimum value 0 (Schwefel is shifted to make this hold).
package funcs

import (
	"fmt"
	"math"
)

// Objective is a real-valued function of a real vector.
type Objective func(x []float64) float64

// Function describes a benchmark objective: its evaluator, box domain
// [Lo, Hi]^dim, the dimension used in the paper (FixedDim > 0 forces that
// dimension, e.g. De Jong F2 is 2-D), and the known global optimum.
type Function struct {
	Name string
	Eval Objective
	// Lo and Hi bound each coordinate of the search domain.
	Lo, Hi float64
	// DefaultDim is the dimension used by the paper's experiments (10 for
	// all functions except F2). FixedDim, when nonzero, is the only valid
	// dimension for the function.
	DefaultDim int
	FixedDim   int
	// OptimumAt returns the location of the global optimum for dimension d.
	OptimumAt func(d int) []float64
	// OptimumValue is f at the global optimum (0 for all functions here).
	OptimumValue float64
	// Hardness is the paper's informal classification: "easy" (F2),
	// "nice" (Zakharov, Sphere, Rosenbrock) or "hard" (Schaffer, Griewank).
	Hardness string
}

// Dim resolves the working dimension for the function: FixedDim when set,
// otherwise d when positive, otherwise DefaultDim.
func (f Function) Dim(d int) int {
	if f.FixedDim > 0 {
		return f.FixedDim
	}
	if d > 0 {
		return d
	}
	return f.DefaultDim
}

// Quality returns the solution quality of x: f(x) − f(x*). Since every
// optimum value is 0, this is simply f(x); kept explicit for clarity.
func (f Function) Quality(x []float64) float64 {
	return f.Eval(x) - f.OptimumValue
}

func origin(d int) []float64 { return make([]float64, d) }

func ones(d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Sphere is the d-dimensional sphere function: sum x_i^2.
// Domain [-100, 100]^d, optimum 0 at the origin. "Nice" for PSO.
var Sphere = Function{
	Name: "Sphere",
	Eval: func(x []float64) float64 {
		var s float64
		for _, xi := range x {
			s += xi * xi
		}
		return s
	},
	Lo: -100, Hi: 100,
	DefaultDim: 10,
	OptimumAt:  origin,
	Hardness:   "nice",
}

// Rosenbrock is the classic banana valley:
// sum_{i<d} 100(x_{i+1} − x_i^2)^2 + (1 − x_i)^2.
// Domain [-30, 30]^d, optimum 0 at (1, ..., 1). "Nice" but with a long flat
// valley that slows convergence.
var Rosenbrock = Function{
	Name: "Rosenbrock",
	Eval: func(x []float64) float64 {
		var s float64
		for i := 0; i+1 < len(x); i++ {
			a := x[i+1] - x[i]*x[i]
			b := 1 - x[i]
			s += 100*a*a + b*b
		}
		return s
	},
	Lo: -30, Hi: 30,
	DefaultDim: 10,
	OptimumAt:  ones,
	Hardness:   "nice",
}

// F2 is De Jong's F2: the 2-dimensional Rosenbrock specialization used by
// the paper. Domain [-2.048, 2.048]^2, optimum 0 at (1, 1). "Easy".
var F2 = Function{
	Name: "F2",
	Eval: func(x []float64) float64 {
		a := x[1] - x[0]*x[0]
		b := 1 - x[0]
		return 100*a*a + b*b
	},
	Lo: -2.048, Hi: 2.048,
	DefaultDim: 2,
	FixedDim:   2,
	OptimumAt:  ones,
	Hardness:   "easy",
}

// Zakharov: sum x_i^2 + (sum 0.5 i x_i)^2 + (sum 0.5 i x_i)^4,
// with i counted from 1. Domain [-5, 10]^d, optimum 0 at the origin.
var Zakharov = Function{
	Name: "Zakharov",
	Eval: func(x []float64) float64 {
		var s1, s2 float64
		for i, xi := range x {
			s1 += xi * xi
			s2 += 0.5 * float64(i+1) * xi
		}
		return s1 + s2*s2 + s2*s2*s2*s2
	},
	Lo: -5, Hi: 10,
	DefaultDim: 10,
	OptimumAt:  origin,
	Hardness:   "nice",
}

// Schaffer is Schaffer's F6 generalized to d dimensions by applying the
// classic 2-D form to the squared norm:
// 0.5 + (sin^2 sqrt(sum x_i^2) − 0.5) / (1 + 0.001 sum x_i^2)^2.
// Domain [-100, 100]^d, optimum 0 at the origin. "Hard": concentric ripples
// with a strong local optimum ring at quality ≈ 0.00972 for 10-D PSO, which
// is exactly the floor visible in the paper's tables.
var Schaffer = Function{
	Name: "Schaffer",
	Eval: func(x []float64) float64 {
		var s float64
		for _, xi := range x {
			s += xi * xi
		}
		sin := math.Sin(math.Sqrt(s))
		den := 1 + 0.001*s
		return 0.5 + (sin*sin-0.5)/(den*den)
	},
	Lo: -100, Hi: 100,
	DefaultDim: 10,
	OptimumAt:  origin,
	Hardness:   "hard",
}

// Griewank: 1 + sum x_i^2/4000 − prod cos(x_i/sqrt(i)), i from 1.
// Domain [-600, 600]^d, optimum 0 at the origin. "Hard": thousands of
// regularly spaced local minima.
var Griewank = Function{
	Name: "Griewank",
	Eval: func(x []float64) float64 {
		var sum float64
		prod := 1.0
		for i, xi := range x {
			sum += xi * xi
			prod *= cos(xi / math.Sqrt(float64(i+1)))
		}
		return 1 + sum/4000 - prod
	},
	Lo: -600, Hi: 600,
	DefaultDim: 10,
	OptimumAt:  origin,
	Hardness:   "hard",
}

// Rastrigin: 10 d + sum (x_i^2 − 10 cos(2π x_i)).
// Domain [-5.12, 5.12]^d, optimum 0 at the origin.
var Rastrigin = Function{
	Name: "Rastrigin",
	Eval: func(x []float64) float64 {
		s := 10 * float64(len(x))
		for _, xi := range x {
			s += xi*xi - 10*cos(2*math.Pi*xi)
		}
		return s
	},
	Lo: -5.12, Hi: 5.12,
	DefaultDim: 10,
	OptimumAt:  origin,
	Hardness:   "hard",
}

// Ackley: −20 exp(−0.2 sqrt(mean x_i^2)) − exp(mean cos 2π x_i) + 20 + e.
// Domain [-32.768, 32.768]^d, optimum 0 at the origin.
var Ackley = Function{
	Name: "Ackley",
	Eval: func(x []float64) float64 {
		d := float64(len(x))
		var s1, s2 float64
		for _, xi := range x {
			s1 += xi * xi
			s2 += cos(2 * math.Pi * xi)
		}
		return -20*math.Exp(-0.2*math.Sqrt(s1/d)) - math.Exp(s2/d) + 20 + math.E
	},
	Lo: -32.768, Hi: 32.768,
	DefaultDim: 10,
	OptimumAt:  origin,
	Hardness:   "hard",
}

// Levy function. Domain [-10, 10]^d, optimum 0 at (1, ..., 1).
var Levy = Function{
	Name: "Levy",
	Eval: func(x []float64) float64 {
		w := func(xi float64) float64 { return 1 + (xi-1)/4 }
		d := len(x)
		w1 := w(x[0])
		s := math.Pow(math.Sin(math.Pi*w1), 2)
		for i := 0; i < d-1; i++ {
			wi := w(x[i])
			t := math.Sin(math.Pi*wi + 1)
			s += (wi - 1) * (wi - 1) * (1 + 10*t*t)
		}
		wd := w(x[d-1])
		t := math.Sin(2 * math.Pi * wd)
		s += (wd - 1) * (wd - 1) * (1 + t*t)
		return s
	},
	Lo: -10, Hi: 10,
	DefaultDim: 10,
	OptimumAt:  ones,
	Hardness:   "hard",
}

// StyblinskiTang, shifted so the optimum value is exactly 0:
// 0.5 sum (x_i^4 − 16 x_i^2 + 5 x_i) + 39.16617 d... The per-dimension
// minimum is at x_i ≈ −2.903534 with value ≈ −39.16616570377142.
// Domain [-5, 5]^d.
var StyblinskiTang = Function{
	Name: "StyblinskiTang",
	Eval: func(x []float64) float64 {
		var s float64
		for _, xi := range x {
			s += xi*xi*xi*xi - 16*xi*xi + 5*xi
		}
		return 0.5*s + 39.16616570377142*float64(len(x))
	},
	Lo: -5, Hi: 5,
	DefaultDim: 10,
	OptimumAt: func(d int) []float64 {
		v := make([]float64, d)
		for i := range v {
			v[i] = -2.9035340276896057
		}
		return v
	},
	Hardness: "hard",
}

// Schwefel 2.26, shifted to optimum 0:
// 418.9829 d − sum x_i sin(sqrt |x_i|). Domain [-500, 500]^d,
// optimum at x_i ≈ 420.9687. Unlike the other benchmarks, Schwefel's
// formula is unbounded below *outside* the domain, so out-of-box
// coordinates are clamped to the boundary with a quadratic distance
// penalty (the standard treatment); otherwise unclamped solvers could
// report fitness below the true optimum.
var Schwefel = Function{
	Name: "Schwefel",
	Eval: func(x []float64) float64 {
		s := 418.9828872724339 * float64(len(x))
		var penalty float64
		for _, xi := range x {
			switch {
			case xi > 500:
				penalty += (xi - 500) * (xi - 500)
				xi = 500
			case xi < -500:
				penalty += (xi + 500) * (xi + 500)
				xi = -500
			}
			s -= xi * math.Sin(math.Sqrt(math.Abs(xi)))
		}
		return s + penalty
	},
	Lo: -500, Hi: 500,
	DefaultDim: 10,
	OptimumAt: func(d int) []float64 {
		v := make([]float64, d)
		for i := range v {
			v[i] = 420.968746
		}
		return v
	},
	Hardness: "hard",
}

// PaperSuite is the six-function suite evaluated in the paper, in the order
// the tables report them.
var PaperSuite = []Function{F2, Zakharov, Rosenbrock, Sphere, Schaffer, Griewank}

// ExtendedSuite adds the extra standard functions to the paper suite.
var ExtendedSuite = append(append([]Function{}, PaperSuite...),
	Rastrigin, Ackley, Levy, StyblinskiTang, Schwefel)

// ByName returns the function with the given (case-sensitive) name.
func ByName(name string) (Function, error) {
	for _, f := range ExtendedSuite {
		if f.Name == name {
			return f, nil
		}
	}
	return Function{}, fmt.Errorf("funcs: unknown function %q", name)
}
