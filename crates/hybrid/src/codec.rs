//! Shared helpers of the one-line `kind|field=value|...` codecs.
//!
//! The [`Op`](crate::Op) journal format and the [`Event`](crate::Event)
//! wire format both armour free-form strings and payload bytes as hex
//! so a record always stays a single line. The helpers live here so
//! the two codecs (and the `cad-net` framing protocol built on top of
//! them) agree byte-for-byte on the armour.

use cad_tools::ToolKind;
use cad_vfs::Blob;

pub(crate) use oms::persist::{hex, unhex};

/// Hex-armours a string field.
pub(crate) fn enc_str(s: &str) -> String {
    hex(s.as_bytes())
}

/// Hex-armours a payload blob.
pub(crate) fn enc_blob(b: &Blob) -> String {
    hex(b.as_slice())
}

/// Comma-joined raw id list.
pub(crate) fn enc_ids<T: Copy>(ids: &[T], raw: impl Fn(T) -> u64) -> String {
    ids.iter()
        .map(|&i| raw(i).to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The stable wire name of a tool kind.
pub(crate) fn enc_kind(kind: ToolKind) -> &'static str {
    match kind {
        ToolKind::SchematicEntry => "schematic-entry",
        ToolKind::LayoutEditor => "layout-editor",
        ToolKind::Simulator => "simulator",
        ToolKind::Framework => "framework",
    }
}

/// A parsed `kind|k=v|...` line with typed field accessors.
pub(crate) struct Fields<'a> {
    pub(crate) kind: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    pub(crate) fn parse(line: &'a str) -> Result<Fields<'a>, String> {
        let mut parts = line.split('|');
        let kind = parts.next().ok_or_else(|| "empty line".to_owned())?;
        let mut fields = Vec::new();
        for part in parts {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad field {part:?}"))?;
            fields.push((k, v));
        }
        Ok(Fields { kind, fields })
    }

    pub(crate) fn get(&self, name: &str) -> Result<&'a str, String> {
        self.fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing field {name:?} in {:?}", self.kind))
    }

    pub(crate) fn str(&self, name: &str) -> Result<String, String> {
        let raw = self.get(name)?;
        String::from_utf8(unhex(raw).ok_or_else(|| format!("bad hex in {name:?}"))?)
            .map_err(|_| format!("field {name:?} is not utf-8"))
    }

    pub(crate) fn blob(&self, name: &str) -> Result<Blob, String> {
        Ok(Blob::from(
            unhex(self.get(name)?).ok_or_else(|| format!("bad hex in {name:?}"))?,
        ))
    }

    pub(crate) fn u64(&self, name: &str) -> Result<u64, String> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("bad number in {name:?}"))
    }

    pub(crate) fn usize(&self, name: &str) -> Result<usize, String> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("bad number in {name:?}"))
    }

    pub(crate) fn u32(&self, name: &str) -> Result<u32, String> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("bad number in {name:?}"))
    }

    pub(crate) fn bool(&self, name: &str) -> Result<bool, String> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("bad bool in {name:?}"))
    }

    pub(crate) fn id<T>(&self, name: &str, from: impl Fn(u64) -> T) -> Result<T, String> {
        Ok(from(self.u64(name)?))
    }

    pub(crate) fn ids<T>(&self, name: &str, from: impl Fn(u64) -> T) -> Result<Vec<T>, String> {
        let raw = self.get(name)?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|p| {
                p.parse::<u64>()
                    .map(&from)
                    .map_err(|_| format!("bad id list in {name:?}"))
            })
            .collect()
    }

    pub(crate) fn kind(&self, name: &str) -> Result<ToolKind, String> {
        match self.get(name)? {
            "schematic-entry" => Ok(ToolKind::SchematicEntry),
            "layout-editor" => Ok(ToolKind::LayoutEditor),
            "simulator" => Ok(ToolKind::Simulator),
            "framework" => Ok(ToolKind::Framework),
            other => Err(format!("unknown tool kind {other:?}")),
        }
    }
}

/// Assembles a `kind|k=v|...` line from encoded fields.
pub(crate) fn assemble(kind: &str, fields: &[(&str, String)]) -> String {
    let mut line = kind.to_owned();
    for (k, v) in fields {
        line.push('|');
        line.push_str(k);
        line.push('=');
        line.push_str(v);
    }
    line
}
