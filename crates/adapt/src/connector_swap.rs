//! Connector interchange (approach 5 of the paper's ten).
//!
//! "Connectors are special kind of components that are used to connect
//! components that interact with each other. … Connectors may be
//! interchanged if necessary." The runtime-side interchange primitive is
//! [`aas_core::runtime::Runtime::adapt_connector`]; this module adds the
//! *policy* layer: a [`ConnectorSelector`] that maps an observed condition
//! (load, loss, latency) onto the connector spec that should be in place,
//! so RAML rules stay declarative.

use aas_core::connector::{ConnectorAspect, ConnectorSpec};
use core::fmt;

/// One rung of the selector: use `spec` while the condition value is at or
/// above `threshold`.
#[derive(Debug, Clone)]
pub struct SelectorRung {
    /// Lower bound (inclusive) of the condition range this rung covers.
    pub threshold: f64,
    /// The connector to use in that range.
    pub spec: ConnectorSpec,
}

/// Maps a scalar condition to the connector spec that should mediate.
///
/// Rungs are ordered by threshold; selection picks the highest rung whose
/// threshold is at or below the observed value.
///
/// # Examples
///
/// ```
/// use aas_adapt::connector_swap::ConnectorSelector;
/// use aas_core::connector::{ConnectorAspect, ConnectorSpec};
///
/// let selector = ConnectorSelector::new("wire")
///     .rung(0.0, ConnectorSpec::direct("wire"))
///     .rung(0.7, ConnectorSpec::direct("wire")
///         .with_aspect(ConnectorAspect::Compression { ratio: 0.5, cost: 0.2 }));
///
/// assert!(selector.select(0.3).unwrap().aspects.is_empty());
/// assert_eq!(selector.select(0.9).unwrap().aspects.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ConnectorSelector {
    connector_name: String,
    rungs: Vec<SelectorRung>,
}

impl ConnectorSelector {
    /// A selector for the connector named `connector_name`.
    #[must_use]
    pub fn new(connector_name: impl Into<String>) -> Self {
        ConnectorSelector {
            connector_name: connector_name.into(),
            rungs: Vec::new(),
        }
    }

    /// Adds a rung (builder style). Rungs are kept sorted by threshold.
    #[must_use]
    pub fn rung(mut self, threshold: f64, spec: ConnectorSpec) -> Self {
        self.rungs.push(SelectorRung { threshold, spec });
        self.rungs
            .sort_by(|a, b| a.threshold.total_cmp(&b.threshold));
        self
    }

    /// The connector this selector manages.
    #[must_use]
    pub fn connector_name(&self) -> &str {
        &self.connector_name
    }

    /// Number of rungs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Whether the selector has no rungs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// Selects the spec for condition `value`: the highest rung at or
    /// below it, else the lowest rung. Returns `None` when the selector
    /// has no rungs.
    #[must_use]
    pub fn select(&self, value: f64) -> Option<&ConnectorSpec> {
        let eligible = self.rungs.iter().take_while(|r| value >= r.threshold);
        eligible.last().or(self.rungs.first()).map(|r| &r.spec)
    }

    /// Convenience: the spec name selected for `value` — useful to decide
    /// whether a swap is needed without comparing whole specs. `None`
    /// when the selector has no rungs.
    #[must_use]
    pub fn select_fingerprint(&self, value: f64) -> Option<String> {
        let spec = self.select(value)?;
        let aspects: Vec<&str> = spec.aspects.iter().map(ConnectorAspect::name).collect();
        Some(format!("{}#{:?}#{:?}", spec.name, spec.policy, aspects))
    }
}

impl fmt::Display for ConnectorSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "selector for `{}`: ", self.connector_name)?;
        for (i, r) in self.rungs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, ">={} -> {} aspects", r.threshold, r.spec.aspects.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selector() -> ConnectorSelector {
        ConnectorSelector::new("wire")
            .rung(
                0.7,
                ConnectorSpec::direct("wire").with_aspect(ConnectorAspect::Compression {
                    ratio: 0.5,
                    cost: 0.2,
                }),
            )
            .rung(0.0, ConnectorSpec::direct("wire"))
            .rung(
                0.9,
                ConnectorSpec::direct("wire")
                    .with_aspect(ConnectorAspect::Compression {
                        ratio: 0.3,
                        cost: 0.3,
                    })
                    .with_aspect(ConnectorAspect::Metering),
            )
    }

    #[test]
    fn rungs_sort_by_threshold() {
        let s = selector();
        assert_eq!(s.len(), 3);
        assert!(s.select(0.0).unwrap().aspects.is_empty());
    }

    #[test]
    fn selection_picks_highest_eligible_rung() {
        let s = selector();
        let aspects = |value| s.select(value).unwrap().aspects.len();
        assert_eq!(aspects(0.5), 0);
        assert_eq!(aspects(0.75), 1);
        assert_eq!(aspects(0.95), 2);
        assert_eq!(aspects(5.0), 2, "clamps to top rung");
        assert_eq!(aspects(-1.0), 0, "below every rung: the lowest");
    }

    #[test]
    fn fingerprint_distinguishes_rungs() {
        let s = selector();
        assert_ne!(s.select_fingerprint(0.1), s.select_fingerprint(0.8));
        assert_eq!(s.select_fingerprint(0.71), s.select_fingerprint(0.89));
    }

    #[test]
    fn empty_selector_selects_nothing() {
        let s = ConnectorSelector::new("x");
        assert!(s.select(0.5).is_none());
        assert!(s.select_fingerprint(0.5).is_none());
    }

    #[test]
    fn display_summarizes() {
        let s = selector();
        let text = s.to_string();
        assert!(text.contains("selector for `wire`"));
        assert!(text.contains(">=0.9"));
    }
}
