// Fixture for the `one-tree-path` rule, linted as
// `crates/core/src/...`: a span's root is stored against the roots of
// earlier spans of its block, so every reader sums the one tree path
// that starts with them.

impl TgiView {
    // The reader as it stood: the span's own root-to-leaf path, which
    // skips the base roots.
    fn try_node_at(&self, span: &SpanRuntime, j: usize) -> Vec<u64> {
        span.meta.shape.path_to_leaf(j) // FIRES:one-tree-path
    }

    fn sum_sid_path(&self, meta: &TimespanMeta, leaf: usize) -> usize {
        let walked = meta.tree_path(leaf); // clean: base roots first
        for did in meta.shape.path_to_leaf(leaf).into_iter() { // FIRES:one-tree-path
            let _ = did;
        }
        walked.len()
    }

    // A fn of the same name elsewhere is not the helper.
    fn tree_path(&self, shape: &TreeShape) -> Vec<u64> {
        shape.path_to_leaf(0) // FIRES:one-tree-path
    }

    fn audited(&self, shape: &TreeShape) -> Vec<u64> {
        // hgs-lint: allow(one-tree-path, "a block head's path: it has no base root")
        shape.path_to_leaf(0)
    }

    // Defining the path, or naming it, is not walking it.
    fn path_to_leaf(&self) {} // clean
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_tree_rebuilds_its_leaves() {
        let shape = TreeShape::new(5, 2);
        assert_eq!(shape.path_to_leaf(4).len(), 4); // clean: tests walk trees
    }
}
