//! Error types shared across the HGS stack.

use std::fmt;

/// Errors arising from delta algebra misuse or inconsistent histories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An event referenced a node that does not exist in the state it
    /// was applied to (e.g. `AddEdge` before `AddNode`).
    UnknownNode { node: u64, context: &'static str },
    /// An event referenced an edge that does not exist.
    UnknownEdge {
        src: u64,
        dst: u64,
        context: &'static str,
    },
    /// An event re-created something that already exists.
    AlreadyExists { what: &'static str, id: u64 },
    /// Events were supplied out of chronological order where order is
    /// required.
    OutOfOrder { prev: u64, next: u64 },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownNode { node, context } => {
                write!(f, "unknown node {node} in {context}")
            }
            DeltaError::UnknownEdge { src, dst, context } => {
                write!(f, "unknown edge {src}->{dst} in {context}")
            }
            DeltaError::AlreadyExists { what, id } => {
                write!(f, "{what} {id} already exists")
            }
            DeltaError::OutOfOrder { prev, next } => {
                write!(f, "events out of order: {next} after {prev}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Errors from the binary codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended in the middle of a value.
    UnexpectedEof { needed: usize, remaining: usize },
    /// A varint ran longer than 10 bytes.
    VarintOverflow,
    /// An enum tag byte had no corresponding variant.
    BadTag { what: &'static str, tag: u8 },
    /// A length prefix exceeded a sanity bound.
    LengthOverflow { what: &'static str, len: u64 },
    /// String bytes were not valid UTF-8.
    BadUtf8,
    /// Trailing garbage after a complete value (strict decodes only).
    TrailingBytes { remaining: usize },
    /// A tree row repeated an edge-list entry or attribute pair of
    /// `node` that a row above it on the path already holds: on any
    /// root-to-leaf path a component lives on exactly one row.
    RepeatedComponent { node: u64 },
    /// A stored reference (`what`, value `id`) names something the
    /// index does not hold: a version-chain chunk its span does not
    /// have, or one whose eventlist row is absent.
    BadRef { what: &'static str, id: u64 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected EOF: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::VarintOverflow => write!(f, "varint overflow"),
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            CodecError::LengthOverflow { what, len } => {
                write!(f, "{what} length {len} exceeds sanity bound")
            }
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
            CodecError::RepeatedComponent { node } => {
                write!(f, "node {node}: component repeated along a tree path")
            }
            CodecError::BadRef { what, id } => write!(f, "{what} {id} names nothing stored"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = DeltaError::UnknownNode {
            node: 7,
            context: "AddEdge",
        };
        assert!(e.to_string().contains("unknown node 7"));
        let c = CodecError::BadTag {
            what: "EventKind",
            tag: 99,
        };
        assert!(c.to_string().contains("EventKind"));
    }
}
