//! Error type for phased-logic construction and analysis.

use std::error::Error;
use std::fmt;

use pl_netlist::NetlistError;

use crate::gate::{PlArcId, PlGateId};

/// Errors produced while mapping to or analyzing phased logic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlError {
    /// The synchronous netlist contains a LUT wider than the PL gate's LUT4.
    LutTooWideForPl {
        /// The offending arity.
        arity: usize,
    },
    /// A signal (arc) is not part of any directed circuit — the marked
    /// graph cannot be live (paper §2).
    ArcNotOnCircuit(PlArcId),
    /// A token-free directed cycle exists through this gate: the marked
    /// graph deadlocks immediately (liveness violation).
    ZeroTokenCycle(PlGateId),
    /// No directed circuit through this arc carries exactly one token, so
    /// safety cannot be guaranteed.
    UnsafeArc(PlArcId),
    /// A gate pin has neither a driving data arc nor a constant tie-off.
    MissingPinDriver {
        /// The gate with the floating pin.
        gate: PlGateId,
        /// The pin index.
        pin: u8,
    },
    /// An early-evaluation master's efire reference is not an efire arc
    /// into that master (e.g. the arc was deleted).
    DanglingEfire(PlGateId),
    /// The underlying synchronous netlist failed validation.
    Netlist(NetlistError),
}

impl fmt::Display for PlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlError::LutTooWideForPl { arity } => {
                write!(
                    f,
                    "lut arity {arity} exceeds the PL gate's 4 inputs (run techmap first)"
                )
            }
            PlError::ArcNotOnCircuit(a) => {
                write!(f, "arc {a} is not part of any directed circuit (liveness)")
            }
            PlError::ZeroTokenCycle(g) => {
                write!(f, "token-free directed cycle through gate {g} (liveness)")
            }
            PlError::UnsafeArc(a) => {
                write!(f, "no one-token circuit through arc {a} (safety)")
            }
            PlError::MissingPinDriver { gate, pin } => {
                write!(
                    f,
                    "gate {gate} pin {pin} has no driver and no constant tie-off"
                )
            }
            PlError::DanglingEfire(g) => {
                write!(f, "EE master {g} has no efire arc of its own")
            }
            PlError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for PlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<NetlistError> for PlError {
    fn from(e: NetlistError) -> Self {
        PlError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_subject() {
        let e = PlError::LutTooWideForPl { arity: 5 };
        assert!(e.to_string().contains('5'));
        let e = PlError::ZeroTokenCycle(PlGateId::from_index(2));
        assert!(e.to_string().contains("g2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<PlError>();
    }
}
