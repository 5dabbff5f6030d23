// Fixture for the `no-whole-row-decode` rule, linted as
// `crates/core/src/...`: since the intersection tree stores a node's
// components spread over its path, a tree row decoded on its own is a
// set of fragments, and summing it node by node silently replaces a
// node with its last fragment.

pub fn sum_path(rows: &[ColumnarDelta]) -> Result<Delta, StoreError> {
    let mut state = Delta::new();
    for row in rows {
        let d = row.to_delta().map_err(StoreError::Corrupt)?; // FIRES:no-whole-row-decode
        state.sum_assign(&d);
    }
    Ok(state)
}

pub fn sum_path_by_pieces(rows: &[DeltaHandle]) -> Result<Delta, StoreError> {
    let mut state = Delta::new();
    for row in rows {
        row.sum_into(&mut state, None, false)?; // clean: the path sum
    }
    Ok(state)
}

pub fn aux_record(row: &ColumnarDelta, nid: NodeId) -> Result<Option<StaticNode>, StoreError> {
    row.node_record(nid).map_err(StoreError::Corrupt) // clean: aux records are whole
}

pub fn to_delta(graph: &Graph) -> Delta {
    graph.nodes().collect() // clean: a definition, not a row decode
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit_tests_are_held_to_it_too() {
        let d = row().to_delta().unwrap(); // FIRES:no-whole-row-decode
        assert!(d.is_empty());
    }
}

pub fn audited(row: &ColumnarDelta) -> Result<Delta, CodecError> {
    // hgs-lint: allow(no-whole-row-decode, "a root row: nothing above it, its records are whole")
    row.to_delta()
}
