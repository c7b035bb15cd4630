package linalg

import "testing"

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Fatalf("Row = %v", row)
	}
	row[0] = 7 // Row shares storage
	if m.At(1, 0) != 7 {
		t.Fatal("Row does not share storage")
	}
}

func TestWrapMatrix(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	m := WrapMatrix(2, 2, data)
	m.Set(0, 1, 9)
	if data[1] != 9 {
		t.Fatal("WrapMatrix copied instead of wrapping")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WrapMatrix with wrong size did not panic")
		}
	}()
	WrapMatrix(3, 3, data)
}

func TestMulVec(t *testing.T) {
	m := WrapMatrix(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1, 1})
	if !almostEq(dst[0], 6) || !almostEq(dst[1], 15) {
		t.Fatalf("MulVec = %v", dst)
	}
}

func TestMulVecT(t *testing.T) {
	m := WrapMatrix(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 3)
	m.MulVecT(dst, []float64{1, 1})
	want := []float64{5, 7, 9}
	for i := range want {
		if !almostEq(dst[i], want[i]) {
			t.Fatalf("MulVecT = %v, want %v", dst, want)
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, []float64{1, 3}, []float64{5, 7})
	// M = 2 * [1;3]·[5,7] = [[10,14],[30,42]]
	want := []float64{10, 14, 30, 42}
	for i, w := range want {
		if !almostEq(m.Data[i], w) {
			t.Fatalf("AddOuter = %v, want %v", m.Data, want)
		}
	}
}

func TestMatrixClone(t *testing.T) {
	m := WrapMatrix(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatrixShapePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for name, fn := range map[string]func(){
		"MulVec":   func() { m.MulVec(make([]float64, 2), make([]float64, 3)) },
		"MulVecT":  func() { m.MulVecT(make([]float64, 3), make([]float64, 3)) },
		"AddOuter": func() { m.AddOuter(1, make([]float64, 3), make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with bad shape did not panic", name)
				}
			}()
			fn()
		}()
	}
}
