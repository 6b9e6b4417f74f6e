//! Inter-tool communication (ITC).
//!
//! FMCAD *"provides all necessary interfaces and inter-tool
//! communication (ITC), e.g., cross-probing between the schematic
//! editor and layout editor"* (§2.2). This module models ITC as a
//! synchronous publish/subscribe bus: each tool registers once and
//! drains its mailbox when it polls. The hybrid framework (§2.4) could
//! *not* use ITC normally through JCF's closed interfaces — the
//! `hybrid` crate reproduces that by routing around this bus with
//! wrapper windows.

use std::collections::VecDeque;
use std::fmt;

/// The kind of tool attached to the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ToolKind {
    /// The schematic entry tool.
    SchematicEntry,
    /// The layout editor.
    LayoutEditor,
    /// The digital simulator.
    Simulator,
    /// The framework itself (data-change notifications).
    Framework,
}

impl ToolKind {
    const ALL: [ToolKind; 4] = [
        ToolKind::SchematicEntry,
        ToolKind::LayoutEditor,
        ToolKind::Simulator,
        ToolKind::Framework,
    ];

    /// The stable name the journal, the checkpoint images and the wire
    /// all use: the one name table, read back by [`FromStr`](std::str::FromStr).
    fn name(self) -> &'static str {
        match self {
            ToolKind::SchematicEntry => "schematic-entry",
            ToolKind::LayoutEditor => "layout-editor",
            ToolKind::Simulator => "simulator",
            ToolKind::Framework => "framework",
        }
    }
}

impl fmt::Display for ToolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ToolKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ToolKind, String> {
        ToolKind::ALL
            .into_iter()
            .find(|kind| kind.name() == s)
            .ok_or_else(|| format!("unknown tool kind {s:?}"))
    }
}

/// A message travelling over the ITC bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItcMessage {
    /// The user selected an object; other tools should highlight it.
    CrossProbe {
        /// Cell in which the selection happened.
        cell: String,
        /// The selected net.
        net: String,
    },
    /// A tool saved changes to a cellview; others may need to refresh.
    DataChanged {
        /// The modified cell.
        cell: String,
        /// The modified view name.
        view: String,
    },
    /// Free-form message for extension-language customisations.
    Custom {
        /// Message name.
        name: String,
        /// Message arguments.
        args: Vec<String>,
    },
}

/// A stamped message as delivered to a subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Which tool sent the message.
    pub from: ToolKind,
    /// The message body.
    pub message: ItcMessage,
}

/// Handle identifying one bus subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriberId(usize);

/// The synchronous inter-tool communication bus.
///
/// # Examples
///
/// ```
/// use cad_tools::{ItcBus, ItcMessage, ToolKind};
///
/// let mut bus = ItcBus::new();
/// let sch = bus.subscribe(ToolKind::SchematicEntry);
/// let lay = bus.subscribe(ToolKind::LayoutEditor);
/// bus.publish(sch, ItcMessage::CrossProbe { cell: "alu".into(), net: "carry".into() });
/// let inbox = bus.drain(lay);
/// assert_eq!(inbox.len(), 1);
/// assert!(bus.drain(sch).is_empty(), "senders do not hear themselves");
/// ```
#[derive(Debug, Default)]
pub struct ItcBus {
    subscribers: Vec<(ToolKind, VecDeque<Delivery>)>,
    log: Vec<Delivery>,
}

impl ItcBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tool and returns its mailbox handle.
    pub fn subscribe(&mut self, kind: ToolKind) -> SubscriberId {
        self.subscribers.push((kind, VecDeque::new()));
        SubscriberId(self.subscribers.len() - 1)
    }

    /// Publishes a message to every *other* subscriber.
    pub fn publish(&mut self, from: SubscriberId, message: ItcMessage) {
        let from_kind = self.subscribers[from.0].0;
        let delivery = Delivery {
            from: from_kind,
            message,
        };
        for (i, (_, mailbox)) in self.subscribers.iter_mut().enumerate() {
            if i != from.0 {
                mailbox.push_back(delivery.clone());
            }
        }
        self.log.push(delivery);
    }

    /// Removes and returns all pending messages for `id`.
    pub fn drain(&mut self, id: SubscriberId) -> Vec<Delivery> {
        self.subscribers[id.0].1.drain(..).collect()
    }

    /// Number of pending messages for `id` without draining.
    pub fn pending(&self, id: SubscriberId) -> usize {
        self.subscribers[id.0].1.len()
    }

    /// The complete message log since construction (for audits and the
    /// E4 experiment, which counts cross-probe traffic).
    pub fn log(&self) -> &[Delivery] {
        &self.log
    }

    /// Number of registered subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_kind_names_parse_back() {
        for kind in ToolKind::ALL {
            assert_eq!(kind.to_string().parse::<ToolKind>(), Ok(kind));
        }
        assert!("editor".parse::<ToolKind>().is_err());
    }

    #[test]
    fn publish_reaches_all_other_subscribers() {
        let mut bus = ItcBus::new();
        let a = bus.subscribe(ToolKind::SchematicEntry);
        let b = bus.subscribe(ToolKind::LayoutEditor);
        let c = bus.subscribe(ToolKind::Simulator);
        bus.publish(
            a,
            ItcMessage::Custom {
                name: "ping".into(),
                args: vec![],
            },
        );
        assert_eq!(bus.pending(a), 0);
        assert_eq!(bus.pending(b), 1);
        assert_eq!(bus.pending(c), 1);
        let d = bus.drain(b);
        assert_eq!(d[0].from, ToolKind::SchematicEntry);
        assert_eq!(bus.pending(b), 0);
    }

    #[test]
    fn messages_are_delivered_in_order() {
        let mut bus = ItcBus::new();
        let a = bus.subscribe(ToolKind::SchematicEntry);
        let b = bus.subscribe(ToolKind::LayoutEditor);
        for i in 0..5 {
            bus.publish(
                a,
                ItcMessage::Custom {
                    name: format!("m{i}"),
                    args: vec![],
                },
            );
        }
        let inbox = bus.drain(b);
        let names: Vec<String> = inbox
            .iter()
            .map(|d| match &d.message {
                ItcMessage::Custom { name, .. } => name.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec!["m0", "m1", "m2", "m3", "m4"]);
    }

    #[test]
    fn log_records_everything() {
        let mut bus = ItcBus::new();
        let a = bus.subscribe(ToolKind::SchematicEntry);
        bus.publish(
            a,
            ItcMessage::DataChanged {
                cell: "x".into(),
                view: "schematic".into(),
            },
        );
        bus.publish(
            a,
            ItcMessage::CrossProbe {
                cell: "x".into(),
                net: "n".into(),
            },
        );
        assert_eq!(bus.log().len(), 2);
    }
}
