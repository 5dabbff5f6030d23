//! The codec error type shared across the HGS stack.

use std::fmt;

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
        let c = CodecError::BadTag {
            what: "EventKind",
            tag: 99,
        };
        assert!(c.to_string().contains("EventKind"));
    }
}
