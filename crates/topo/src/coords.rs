//! Mixed-radix node addressing shared by the mesh and the torus: node `i`
//! has digit `δ_d(i)` in dimension `d`, dimension 0 varying fastest.

/// Coordinates (digit string, `δ_0` first) of index `idx`.
pub(crate) fn coords_of(dims: &[usize], mut idx: usize) -> Vec<usize> {
    dims.iter()
        .map(|&m| {
            let c = idx % m;
            idx /= m;
            c
        })
        .collect()
}

/// Index of the node at `coords`.
pub(crate) fn index_of(dims: &[usize], coords: &[usize]) -> usize {
    let mut idx = 0;
    let mut stride = 1;
    for (&c, &m) in coords.iter().zip(dims) {
        idx += c * stride;
        stride *= m;
    }
    idx
}

/// The dimension-ordered chain key of index `idx`: its digits re-read with
/// dimension 0 most significant.
pub(crate) fn chain_key(dims: &[usize], mut idx: usize) -> u64 {
    let mut key = 0u64;
    for &m in dims {
        key = key * m as u64 + (idx % m) as u64;
        idx /= m;
    }
    key
}

/// Side lengths joined with `x`, as in `16x16`.
pub(crate) fn dims_label(dims: &[usize]) -> String {
    let sides: Vec<String> = dims.iter().map(ToString::to_string).collect();
    sides.join("x")
}
