// Package canontest fills values of the canonically rendered types with
// seeded random contents through reflect, for the cross-checks that hold
// package canon's appenders to the fmt code they replace. It fills every
// exported field it reaches, so a field added to a rendered type is
// exercised, and the cross-check fails until the field is rendered, without
// any change to the tests.
package canontest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
)

// floats are the float64 values that fmt and strconv treat apart: zero and
// negative zero, the infinities and NaN, the smallest subnormal, the
// largest finite magnitudes, the edges of %g's exponent form, and the
// integers either side of 1e6, where canon.Float leaves its integer path.
var floats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-5,
	999999, -999999, 1e6, -1e6,
}

var ints = []int64{0, 1, -1, math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32}

var strs = []string{"", "config3", "a b", "two\nlines", "%v %d", "\"quoted\"", "ünïcödé"}

var errorType = reflect.TypeFor[error]()

// Fill sets every field reachable from ptr, a non-nil pointer, to a value
// drawn from rng. Floats are one of the special values above half the time
// and random otherwise; integers are small (-3..9, so dies and map keys
// take negative coordinates and an enum takes out-of-range values) or
// extreme; maps and slices are nil, empty or hold one to four entries;
// pointers are nil or set; errors are nil, one line or several. It panics
// on an unexported field, an interface other than error, or a kind it
// cannot fill, so a new field is never silently left at its zero value.
func Fill(rng *rand.Rand, ptr any) {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		panic("canontest: Fill needs a non-nil pointer")
	}
	fill(rng, v.Elem())
}

func fill(rng *rand.Rand, v reflect.Value) {
	t := v.Type()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(randInt(rng))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(randInt(rng)))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(randFloat(rng))
	case reflect.String:
		v.SetString(strs[rng.Intn(len(strs))])
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(rng, v.Index(i))
		}
	case reflect.Slice:
		n, null := size(rng)
		if null {
			v.SetZero()
			return
		}
		v.Set(reflect.MakeSlice(t, n, n))
		for i := 0; i < n; i++ {
			fill(rng, v.Index(i))
		}
	case reflect.Map:
		n, null := size(rng)
		if null {
			v.SetZero()
			return
		}
		v.Set(reflect.MakeMapWithSize(t, n))
		for i := 0; i < n; i++ {
			k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			fill(rng, k)
			fill(rng, e)
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		if rng.Intn(4) == 0 {
			v.SetZero()
			return
		}
		p := reflect.New(t.Elem())
		fill(rng, p.Elem())
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !t.Field(i).IsExported() {
				panic(fmt.Sprintf("canontest: cannot fill unexported field %s.%s", t, t.Field(i).Name))
			}
			fill(rng, v.Field(i))
		}
	case reflect.Interface:
		if t != errorType {
			panic(fmt.Sprintf("canontest: cannot fill interface %s", t))
		}
		switch rng.Intn(3) {
		case 0:
			v.SetZero()
		case 1:
			v.Set(reflect.ValueOf(errors.New(strs[rng.Intn(len(strs))])))
		default:
			v.Set(reflect.ValueOf(fmt.Errorf("sched: stage %d:\n%w", randInt(rng), errors.New("out of memory\non die (1,2)"))))
		}
	default:
		panic(fmt.Sprintf("canontest: cannot fill %s of kind %s", t, v.Kind()))
	}
}

// size picks a collection's length, or null for a nil one.
func size(rng *rand.Rand) (n int, null bool) {
	switch rng.Intn(4) {
	case 0:
		return 0, true
	case 1:
		return 0, false
	default:
		return 1 + rng.Intn(4), false
	}
}

func randInt(rng *rand.Rand) int64 {
	if rng.Intn(8) == 0 {
		return ints[rng.Intn(len(ints))]
	}
	return int64(rng.Intn(13) - 3)
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0, 1, 2:
		return floats[rng.Intn(len(floats))]
	case 3:
		return float64(rng.Intn(2048))
	case 4:
		return rng.Float64()
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
}
