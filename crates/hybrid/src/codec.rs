//! The one-line codec of [`Op`](crate::Op) and [`Event`](crate::Event),
//! derived from one declaration per variant.
//!
//! [`records!`] takes an enum written as usual with each variant's kind
//! string between its name and its fields, and emits the enum together
//! with its `kind_name`, `to_line` and `parse_line`, and the
//! crate-private `walk_ids` the shard router translates ids with. The
//! declared fields are the line: `kind|key=value|...` with one field per
//! declared field, in declared order. A struct field's key is its name
//! unless a string follows the name (`override_pending "override"`); a
//! tuple field is written `key: Type`. An event id field marked
//! `=> new` is one the event *creates*; every other id is *referenced*.
//!
//! Each field type renders and reads itself ([`Field`]); most are one
//! [`Token`] (ids, numbers, flags, named enums, hex-armoured text and
//! bytes, `-` for an absent option), a `Vec` of tokens is one field
//! joined by the token's separator, and a few structured values spread
//! over several keys of their own. The reader accepts exactly what the
//! renderer writes: fields in declared order, each once, nothing after
//! the last one, numbers and armour in their one spelling
//! ([`oms::persist::dec`], [`oms::persist::unhex`]).

use std::fmt::Write;
use std::str::Split;

use cad_tools::{LvsReport, LvsViolation, ToolKind};
use cad_vfs::Blob;
use jcf::{
    ActivityId, CellId, CellVersionId, ConfigId, ConfigVersionId, DesignObjectId, DovId, FlowId,
    ProjectId, TeamId, ToolId, UserId, VariantId, ViewTypeId,
};
use oms::persist::{dec, hex_into, unhex};

use crate::events::MergeConflict;
use crate::framework::{StagingMode, StandardFlow};
use crate::future::FutureFeatures;
use crate::import::ImportReport;
use crate::release::ExportManifest;

/// Visits one id in line order; the flag tells whether the record
/// creates the id (`true`) or only references it.
pub(crate) type IdVisitor<'a> = dyn FnMut(bool, &mut u64) -> Result<(), String> + 'a;

/// The fields of one record line, taken in declared order.
pub(crate) struct Reader<'a> {
    parts: Split<'a, char>,
}

impl<'a> Reader<'a> {
    /// Splits off the record kind.
    pub(crate) fn new(line: &'a str) -> (&'a str, Reader<'a>) {
        let mut parts = line.split('|');
        let kind = parts.next().unwrap_or_default();
        (kind, Reader { parts })
    }

    /// The value of the next field, which must be `key`.
    fn value(&mut self, key: &str) -> Result<&'a str, String> {
        let part = self
            .parts
            .next()
            .ok_or_else(|| format!("missing field {key:?}"))?;
        match part.split_once('=') {
            Some((k, v)) if k == key => Ok(v),
            _ => Err(format!("expected field {key:?}, found {part:?}")),
        }
    }

    /// Refuses anything after the last declared field.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        match self.parts.next() {
            Some(extra) => Err(format!("unexpected field {extra:?}")),
            None => Ok(()),
        }
    }
}

/// A declared field: renders as `|key=value` (a spread type renders
/// keys of its own and ignores `key`), reads back from the same place,
/// and visits the ids it holds.
pub(crate) trait Field: Sized {
    fn put(&self, key: &str, out: &mut String);
    fn take(r: &mut Reader<'_>, key: &str) -> Result<Self, String>;
    fn walk(&mut self, created: bool, v: &mut IdVisitor<'_>) -> Result<(), String>;
}

/// A value written as one token: a whole field, or one element of a
/// list field.
pub(crate) trait Token: Sized {
    /// What joins the elements of a `Vec` of this token.
    const SEP: char = ',';
    fn render(&self, out: &mut String);
    fn read(s: &str) -> Option<Self>;
    fn ids(&mut self, _created: bool, _v: &mut IdVisitor<'_>) -> Result<(), String> {
        Ok(())
    }
}

fn push_key(key: &str, out: &mut String) {
    out.push('|');
    out.push_str(key);
    out.push('=');
}

impl<T: Token> Field for T {
    fn put(&self, key: &str, out: &mut String) {
        push_key(key, out);
        self.render(out);
    }

    fn take(r: &mut Reader<'_>, key: &str) -> Result<Self, String> {
        T::read(r.value(key)?).ok_or_else(|| format!("bad value in {key:?}"))
    }

    fn walk(&mut self, created: bool, v: &mut IdVisitor<'_>) -> Result<(), String> {
        self.ids(created, v)
    }
}

/// The empty value is the empty list.
impl<T: Token> Field for Vec<T> {
    fn put(&self, key: &str, out: &mut String) {
        push_key(key, out);
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(T::SEP);
            }
            item.render(out);
        }
    }

    fn take(r: &mut Reader<'_>, key: &str) -> Result<Self, String> {
        let raw = r.value(key)?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(T::SEP)
            .map(|item| T::read(item).ok_or_else(|| format!("bad element in {key:?}")))
            .collect()
    }

    fn walk(&mut self, created: bool, v: &mut IdVisitor<'_>) -> Result<(), String> {
        self.iter_mut().try_for_each(|item| item.ids(created, v))
    }
}

macro_rules! id_tokens {
    ($($id:ident),*) => {$(
        impl Token for $id {
            fn render(&self, out: &mut String) {
                let _ = write!(out, "{}", self.raw());
            }

            fn read(s: &str) -> Option<Self> {
                dec(s).map($id::from_raw)
            }

            fn ids(&mut self, created: bool, v: &mut IdVisitor<'_>) -> Result<(), String> {
                let mut raw = self.raw();
                v(created, &mut raw)?;
                *self = $id::from_raw(raw);
                Ok(())
            }
        }
    )*};
}

id_tokens!(
    ActivityId,
    CellId,
    CellVersionId,
    ConfigId,
    ConfigVersionId,
    DesignObjectId,
    DovId,
    FlowId,
    ProjectId,
    TeamId,
    ToolId,
    UserId,
    VariantId,
    ViewTypeId
);

macro_rules! display_tokens {
    ($read:ident: $($ty:ty),*) => {$(
        impl Token for $ty {
            fn render(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(s: &str) -> Option<Self> {
                $read(s)
            }
        }
    )*};
}

fn from_str<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

display_tokens!(dec: u32, u64, usize);
display_tokens!(from_str: bool, ToolKind);

impl Token for StagingMode {
    fn render(&self, out: &mut String) {
        out.push_str(match self {
            StagingMode::ZeroCopy => "zero-copy",
            StagingMode::DeepCopy => "deep-copy",
        });
    }

    fn read(s: &str) -> Option<Self> {
        match s {
            "zero-copy" => Some(StagingMode::ZeroCopy),
            "deep-copy" => Some(StagingMode::DeepCopy),
            _ => None,
        }
    }
}

impl Token for String {
    fn render(&self, out: &mut String) {
        hex_into(out, self.as_bytes());
    }

    fn read(s: &str) -> Option<Self> {
        String::from_utf8(unhex(s)?).ok()
    }
}

impl Token for Blob {
    fn render(&self, out: &mut String) {
        hex_into(out, self);
    }

    fn read(s: &str) -> Option<Self> {
        unhex(s).map(Blob::from)
    }
}

/// `-` for `None`; no token renders as `-` itself.
impl<T: Token> Token for Option<T> {
    fn render(&self, out: &mut String) {
        match self {
            Some(value) => value.render(out),
            None => out.push('-'),
        }
    }

    fn read(s: &str) -> Option<Self> {
        match s {
            "-" => Some(None),
            _ => T::read(s).map(Some),
        }
    }

    fn ids(&mut self, created: bool, v: &mut IdVisitor<'_>) -> Result<(), String> {
        self.as_mut().map_or(Ok(()), |value| value.ids(created, v))
    }
}

/// `a:b`, and `;` between pairs. `a` never holds a `:`.
impl<A: Token, B: Token> Token for (A, B) {
    const SEP: char = ';';

    fn render(&self, out: &mut String) {
        self.0.render(out);
        out.push(':');
        self.1.render(out);
    }

    fn read(s: &str) -> Option<Self> {
        let (a, b) = s.split_once(':')?;
        Some((A::read(a)?, B::read(b)?))
    }

    fn ids(&mut self, created: bool, v: &mut IdVisitor<'_>) -> Result<(), String> {
        self.0.ids(created, v)?;
        self.1.ids(created, v)
    }
}

/// `r:<holder>` or `a:<design object>:<expected>:<found>`.
impl Token for MergeConflict {
    const SEP: char = ';';

    fn render(&self, out: &mut String) {
        let _ = match self {
            MergeConflict::ReservedByOther { holder } => write!(out, "r:{}", holder.raw()),
            MergeConflict::DesignObjectAdvanced {
                design_object,
                expected,
                found,
            } => write!(out, "a:{}:{expected}:{found}", design_object.raw()),
        };
    }

    fn read(s: &str) -> Option<Self> {
        match s.split_once(':')? {
            ("r", holder) => Some(MergeConflict::ReservedByOther {
                holder: Token::read(holder)?,
            }),
            ("a", rest) => {
                let (design_object, (expected, found)) = Token::read(rest)?;
                Some(MergeConflict::DesignObjectAdvanced {
                    design_object,
                    expected,
                    found,
                })
            }
            _ => None,
        }
    }

    fn ids(&mut self, created: bool, v: &mut IdVisitor<'_>) -> Result<(), String> {
        match self {
            MergeConflict::ReservedByOther { holder } => holder.ids(created, v),
            MergeConflict::DesignObjectAdvanced { design_object, .. } => {
                design_object.ids(created, v)
            }
        }
    }
}

/// `missing:<net>`, `phantom:<net>` or
/// `instance:<cell>:<schematic>:<layout>`.
impl Token for LvsViolation {
    const SEP: char = ';';

    fn render(&self, out: &mut String) {
        let (tag, name) = match self {
            LvsViolation::MissingNet { net } => ("missing:", net),
            LvsViolation::PhantomNet { net } => ("phantom:", net),
            LvsViolation::InstanceMismatch { cell, .. } => ("instance:", cell),
        };
        out.push_str(tag);
        name.render(out);
        if let LvsViolation::InstanceMismatch {
            schematic, layout, ..
        } = self
        {
            let _ = write!(out, ":{schematic}:{layout}");
        }
    }

    fn read(s: &str) -> Option<Self> {
        match s.split_once(':')? {
            ("missing", net) => Some(LvsViolation::MissingNet {
                net: Token::read(net)?,
            }),
            ("phantom", net) => Some(LvsViolation::PhantomNet {
                net: Token::read(net)?,
            }),
            ("instance", rest) => {
                let (cell, (schematic, layout)) = Token::read(rest)?;
                Some(LvsViolation::InstanceMismatch {
                    cell,
                    schematic,
                    layout,
                })
            }
            _ => None,
        }
    }
}

/// The key a declared field is written under.
macro_rules! key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Whether a declared id field is one the record creates.
macro_rules! created {
    () => {
        false
    };
    (new) => {
        true
    };
}

/// Structured values spread over several keys, one per declared field.
macro_rules! spread {
    ($($ty:ident { $($field:ident $($key:literal)?),* })*) => {$(
        impl Field for $ty {
            fn put(&self, _: &str, out: &mut String) {
                $(Field::put(&self.$field, key!($field $($key)?), out);)*
            }

            fn take(r: &mut Reader<'_>, _: &str) -> Result<Self, String> {
                Ok($ty { $($field: Field::take(r, key!($field $($key)?))?,)* })
            }

            fn walk(&mut self, created: bool, v: &mut IdVisitor<'_>) -> Result<(), String> {
                $(Field::walk(&mut self.$field, created, v)?;)*
                Ok(())
            }
        }
    )*};
}

spread! {
    StandardFlow { flow, enter_schematic, enter_layout, simulate }
    ImportReport { cells, design_objects, versions, bytes_copied }
    ExportManifest { files, total_bytes "total" }
    LvsReport { matched_nets "matched", violations }
    FutureFeatures {
        procedural_interface "procedural",
        non_isomorphic_hierarchies "non_isomorphic",
        cross_project_sharing "sharing"
    }
}

/// Declares a record enum and derives its line codec and id walk; see
/// the module docs for the field syntax.
macro_rules! records {
    (
        $(#[$enum_meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$meta:meta])*
                $variant:ident $kind:literal
                $(( $($tuple:ident: $tuple_ty:ty $(=> $tuple_role:ident)?),* $(,)? ))?
                $({ $(
                    $(#[$field_meta:meta])*
                    $field:ident $($key:literal)?: $field_ty:ty $(=> $role:ident)?
                ),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$enum_meta])*
        pub enum $name {
            $(
                $(#[$meta])*
                $variant
                $(( $($tuple_ty),* ))?
                $({ $($(#[$field_meta])* $field: $field_ty),* })?
            ),*
        }

        impl $name {
            /// The stable kind name: the first token of the line, and
            /// the key the counters and traces use.
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => $kind,)*
                }
            }

            /// Renders the one-line form, `kind|key=value|...`, with
            /// strings and payloads hex-armoured.
            pub fn to_line(&self) -> String {
                use $crate::codec::{key, Field};
                let mut out = String::new();
                match self {
                    $(Self::$variant $(( $($tuple),* ))? $({ $($field),* })? => {
                        out.push_str($kind);
                        $($(Field::put($tuple, stringify!($tuple), &mut out);)*)?
                        $($(Field::put($field, key!($field $($key)?), &mut out);)*)?
                    })*
                }
                out
            }

            /// Parses the [`to_line`](Self::to_line) form back: the
            /// declared fields, in order, each once and in the spelling
            /// `to_line` writes.
            ///
            /// # Errors
            ///
            /// [`HybridError::Journal`](crate::HybridError::Journal)
            /// for any other line.
            pub fn parse_line(line: &str) -> $crate::HybridResult<$name> {
                use $crate::codec::{key, Field};
                let parse = || -> Result<$name, String> {
                    let (kind, mut r) = $crate::codec::Reader::new(line);
                    let record = match kind {
                        $($kind => {
                            $($(let $tuple = Field::take(&mut r, stringify!($tuple))?;)*)?
                            $($(let $field = Field::take(&mut r, key!($field $($key)?))?;)*)?
                            Self::$variant $(( $($tuple),* ))? $({ $($field),* })?
                        })*
                        other => return Err(format!("unknown kind {other:?}")),
                    };
                    r.finish()?;
                    Ok(record)
                };
                parse().map_err($crate::HybridError::Journal)
            }

            /// Visits every id in line order, telling created ids from
            /// referenced ones; the first visitor error stops the walk.
            pub(crate) fn walk_ids(
                &mut self,
                v: &mut $crate::codec::IdVisitor<'_>,
            ) -> Result<(), String> {
                use $crate::codec::{created, Field};
                match self {
                    $(Self::$variant $(( $($tuple),* ))? $({ $($field),* })? => {
                        $($(Field::walk($tuple, created!($($tuple_role)?), v)?;)*)?
                        $($(Field::walk($field, created!($($role)?), v)?;)*)?
                    })*
                }
                Ok(())
            }
        }
    };
}

pub(crate) use {created, key, records};
