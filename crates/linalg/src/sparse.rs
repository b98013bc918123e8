use std::fmt;

/// Coordinate-format (COO / "triplet") sparse-matrix builder.
///
/// This is the assembly format: MNA stamping pushes `(row, col, value)`
/// triplets, duplicates are *summed* on conversion — exactly the semantics a
/// circuit stamper wants (two resistors between the same nodes simply add
/// conductance).
///
/// # Example
///
/// ```
/// use ohmflow_linalg::TripletMatrix;
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // duplicate: summed
/// let csr = t.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `rows x cols` builder.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty builder with reserved capacity for `nnz` entries.
    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(nnz),
        }
    }

    /// Appends `value` at `(row, col)`. Duplicates are summed on conversion.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of raw (possibly duplicate) entries pushed so far.
    pub fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// Removes all entries, keeping the dimensions.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Compresses into row-major [`CsrMatrix`], summing duplicates and
    /// dropping exact zeros produced by cancellation only when `prune` asks
    /// for it (structural zeros are kept so factorization patterns stay
    /// stable between Newton iterations).
    pub fn to_csr(&self) -> CsrMatrix {
        compress(
            self.rows,
            self.cols,
            &self.entries,
            /*by_row=*/ true,
            None,
        )
        .into_csr()
    }

    /// Compresses into column-major [`CscMatrix`].
    pub fn to_csc(&self) -> CscMatrix {
        compress(
            self.cols,
            self.rows,
            &self.entries,
            /*by_row=*/ false,
            None,
        )
        .into_csc()
    }

    /// [`TripletMatrix::to_csc`] plus the slot (index into the value
    /// array, see [`CscMatrix::values_mut`]) of every pushed entry, in push
    /// order: what a caller needs to rewrite the values in place when the
    /// same entries are pushed again with new values.
    pub fn to_csc_with_slots(&self) -> (CscMatrix, Vec<usize>) {
        let mut slots = vec![0; self.entries.len()];
        let csc = compress(self.cols, self.rows, &self.entries, false, Some(&mut slots));
        (csc.into_csc(), slots)
    }
}

/// Intermediate compressed form shared by the CSR/CSC conversions.
struct Compressed {
    /// Outer dimension (rows for CSR, cols for CSC).
    outer: usize,
    /// Inner dimension.
    inner: usize,
    ptr: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

/// `slots`, when given, receives the compressed position of every entry.
fn compress(
    outer_n: usize,
    inner_n: usize,
    entries: &[(usize, usize, f64)],
    by_row: bool,
    mut slots: Option<&mut [usize]>,
) -> Compressed {
    // Counting sort by outer index, then sort each segment by inner index and
    // merge duplicates.
    let key = |e: &(usize, usize, f64)| if by_row { e.0 } else { e.1 };
    let sub = |e: &(usize, usize, f64)| if by_row { e.1 } else { e.0 };

    let mut counts = vec![0usize; outer_n + 1];
    for e in entries {
        counts[key(e) + 1] += 1;
    }
    for i in 0..outer_n {
        counts[i + 1] += counts[i];
    }
    let mut slot = counts.clone();
    let mut tmp_idx = vec![0usize; entries.len()];
    let mut tmp_val = vec![0.0f64; entries.len()];
    let mut tmp_src = vec![0usize; entries.len()];
    for (src, e) in entries.iter().enumerate() {
        let k = key(e);
        let s = slot[k];
        tmp_idx[s] = sub(e);
        tmp_val[s] = e.2;
        tmp_src[s] = src;
        slot[k] += 1;
    }

    let mut ptr = Vec::with_capacity(outer_n + 1);
    let mut idx = Vec::with_capacity(entries.len());
    let mut val = Vec::with_capacity(entries.len());
    ptr.push(0);
    let mut seg: Vec<(usize, f64, usize)> = Vec::new();
    for o in 0..outer_n {
        let range = counts[o]..counts[o + 1];
        seg.clear();
        seg.extend(
            tmp_idx[range.clone()]
                .iter()
                .zip(&tmp_val[range.clone()])
                .zip(&tmp_src[range])
                .map(|((&i, &v), &src)| (i, v, src)),
        );
        seg.sort_unstable_by_key(|&(i, _, _)| i);
        let mut last: Option<usize> = None;
        for &(i, v, src) in seg.iter() {
            if last == Some(i) {
                *val.last_mut()
                    .expect("invariant: a duplicate entry was just pushed") += v;
            } else {
                idx.push(i);
                val.push(v);
                last = Some(i);
            }
            if let Some(slots) = slots.as_deref_mut() {
                slots[src] = idx.len() - 1;
            }
        }
        ptr.push(idx.len());
    }
    Compressed {
        outer: outer_n,
        inner: inner_n,
        ptr,
        idx,
        val,
    }
}

impl Compressed {
    fn into_csr(self) -> CsrMatrix {
        CsrMatrix {
            rows: self.outer,
            cols: self.inner,
            row_ptr: self.ptr,
            col_idx: self.idx,
            values: self.val,
        }
    }

    fn into_csc(self) -> CscMatrix {
        CscMatrix {
            cols: self.outer,
            rows: self.inner,
            col_ptr: self.ptr,
            row_idx: self.idx,
            values: self.val,
        }
    }
}

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(row, col)`, `0.0` if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        match self.col_idx[lo..hi].binary_search(&col) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterator over `(col, value)` pairs of one row.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for (c, v) in self.row(r) {
                s += v * x[c];
            }
            *yr = s;
        }
        y
    }
}

/// Compressed-sparse-column matrix — the input format of [`crate::SparseLu`].
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column pointer array (`cols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices, column-segment by column-segment.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Stored values aligned with [`CscMatrix::row_idx`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// A value-mutable view over this matrix's fixed pattern: values can
    /// be rewritten in place, the pattern cannot change.
    pub fn values_mut(&mut self) -> CscValuesMut<'_> {
        CscValuesMut {
            col_ptr: &self.col_ptr,
            row_idx: &self.row_idx,
            values: &mut self.values,
        }
    }

    /// Iterator over `(row, value)` pairs of one column.
    pub fn col(&self, col: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.col_ptr[col], self.col_ptr[col + 1]);
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Value at `(row, col)`, `0.0` if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (lo, hi) = (self.col_ptr[col], self.col_ptr[col + 1]);
        match self.row_idx[lo..hi].binary_search(&row) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.mul_vec_into(x, &mut y);
        y
    }

    /// [`CscMatrix::mul_vec`] into a caller-provided buffer, reusing its
    /// allocation (hot loops computing residuals every time step).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut Vec<f64>) {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        y.clear();
        y.resize(self.rows, 0.0);
        for (c, &xc) in x.iter().enumerate() {
            if xc != 0.0 {
                for (r, v) in self.col(c) {
                    y[r] += v * xc;
                }
            }
        }
    }
}

/// A value-mutable view of a [`CscMatrix`] over its fixed pattern
/// ([`CscMatrix::values_mut`]): the restamp shape of SPICE's per-device
/// matrix-element pointers. A caller resolves the *slot* (index into the
/// value array) of each `(row, col)` position once and then rewrites
/// values through it, with no triplet assembly, sort or allocation.
///
/// # Example
///
/// ```
/// use ohmflow_linalg::TripletMatrix;
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(1, 0, 2.0);
/// t.push(1, 1, 3.0);
/// let mut a = t.to_csc();
/// let mut v = a.values_mut();
/// let s = v.slot(1, 0).expect("in pattern");
/// assert!(v.slot(0, 1).is_none());
/// v.fill_zero();
/// v.add(s, 5.0);
/// assert_eq!(a.get(1, 0), 5.0);
/// assert_eq!(a.get(1, 1), 0.0);
/// assert_eq!(a.nnz(), 3); // explicit zeros keep their slots
/// ```
#[derive(Debug)]
pub struct CscValuesMut<'a> {
    col_ptr: &'a [usize],
    row_idx: &'a [usize],
    values: &'a mut [f64],
}

impl CscValuesMut<'_> {
    /// The slot of `(row, col)`, or `None` if the position is outside the
    /// pattern (or out of bounds).
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let hi = *self.col_ptr.get(col + 1)?;
        let lo = self.col_ptr[col];
        self.row_idx[lo..hi]
            .binary_search(&row)
            .ok()
            .map(|k| lo + k)
    }

    /// `true` if `slot` is the slot of `(row, col)`: the O(1) check of a
    /// slot remembered from an earlier walk.
    pub fn is_slot(&self, slot: usize, row: usize, col: usize) -> bool {
        self.row_idx.get(slot) == Some(&row)
            && col < self.col_ptr.len() - 1
            && self.col_ptr[col] <= slot
            && slot < self.col_ptr[col + 1]
    }

    /// Sets every stored value to zero (the pattern is kept).
    pub fn fill_zero(&mut self) {
        self.values.fill(0.0);
    }

    /// Adds `v` to the value at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= nnz`.
    pub fn add(&mut self, slot: usize, v: f64) {
        self.values[slot] += v;
    }
}

impl fmt::Display for CscMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CscMatrix {}x{} nnz={}",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> TripletMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(0, 2, 2.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, 4.0);
        t.push(2, 2, 5.0);
        t
    }

    #[test]
    fn csr_roundtrip_values() {
        let csr = example().to_csr();
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.get(0, 0), 1.0);
        assert_eq!(csr.get(0, 1), 0.0);
        assert_eq!(csr.get(2, 2), 5.0);
    }

    #[test]
    fn csc_roundtrip_values() {
        let csc = example().to_csc();
        assert_eq!(csc.nnz(), 5);
        assert_eq!(csc.get(0, 2), 2.0);
        assert_eq!(csc.get(1, 1), 3.0);
        assert_eq!(csc.get(1, 0), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::new(1, 1);
        t.push(0, 0, 1.5);
        t.push(0, 0, 2.5);
        assert_eq!(t.to_csr().get(0, 0), 4.0);
        assert_eq!(t.to_csc().get(0, 0), 4.0);
    }

    #[test]
    fn mul_vec_agrees_between_formats() {
        let t = example();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(t.to_csr().mul_vec(&x), t.to_csc().mul_vec(&x));
        assert_eq!(t.to_csr().mul_vec(&x), vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn empty_matrix() {
        let t = TripletMatrix::new(2, 2);
        let csr = t.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.mul_vec(&[1.0, 1.0]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_push_panics() {
        let mut t = TripletMatrix::new(1, 1);
        t.push(1, 0, 1.0);
    }

    #[test]
    fn slot_view_rewrites_values_over_the_fixed_pattern() {
        let mut csc = example().to_csc();
        let positions = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)];
        let mut v = csc.values_mut();
        let slots: Vec<usize> = positions
            .iter()
            .map(|&(r, c)| v.slot(r, c).expect("in pattern"))
            .collect();
        for (&(r, c), &s) in positions.iter().zip(&slots) {
            assert!(v.is_slot(s, r, c));
            assert!(!v.is_slot(s, r + 1, c) && !v.is_slot(s, r, (c + 1) % 3));
        }
        assert_eq!(v.slot(1, 0), None);
        assert_eq!(v.slot(0, 3), None);
        assert!(!v.is_slot(5, 0, 0));
        v.fill_zero();
        for (k, &s) in slots.iter().enumerate() {
            v.add(s, k as f64 + 10.0);
            v.add(s, 0.5);
        }
        for (k, &(r, c)) in positions.iter().enumerate() {
            assert_eq!(csc.get(r, c), k as f64 + 10.5);
        }
        assert_eq!(csc.nnz(), 5);
        assert_eq!(csc.col_ptr(), example().to_csc().col_ptr());
    }

    #[test]
    fn csc_slots_locate_every_pushed_entry() {
        let mut t = example();
        t.push(2, 0, 0.5); // duplicate of an earlier entry: same slot
        let (mut csc, slots) = t.to_csc_with_slots();
        assert_eq!(csc, t.to_csc());
        assert_eq!(slots.len(), t.raw_len());
        let pushed = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2), (2, 0)];
        for (&(r, c), &s) in pushed.iter().zip(&slots) {
            assert_eq!(csc.values_mut().slot(r, c), Some(s));
        }
        assert_eq!(slots[3], slots[5]);
    }

    #[test]
    fn clear_resets_entries_not_shape() {
        let mut t = example();
        t.clear();
        assert_eq!(t.raw_len(), 0);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.to_csr().nnz(), 0);
    }
}
