//! Name-indexed slot tables: how the runtime holds its instances and
//! connectors.
//!
//! A [`Table`] gives every *name* it is ever asked to hold a dense id, for
//! good: the id is an index into the slot vector, the slot holds whatever
//! currently bears the name (or nothing), and a name's id is never given
//! to another name. So an id taken when the configuration was written —
//! at deploy, bind or plan apply — means at any later time exactly what
//! the name would mean then: the bearer if there is one, and the name
//! itself for the `no instance` report if there is none. The per-message
//! path holds ids and indexes; only the write path looks names up.
//!
//! Iteration is in name order, which is what the ordered maps this
//! replaces gave `observe`, the fingerprints, repair planning and
//! negotiation.

use crate::message::Name;
use std::collections::BTreeMap;

/// A dense table id: an index into one table's slots.
pub(crate) trait SlotId: Copy {
    fn from_index(index: usize) -> Self;
    fn index(self) -> usize;
}

macro_rules! slot_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub(crate) struct $name(u32);

        impl SlotId for $name {
            fn from_index(index: usize) -> Self {
                $name(u32::try_from(index).expect("fewer than 2^32 names"))
            }
            fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

slot_id!(
    /// Id of an instance name.
    InstId
);
slot_id!(
    /// Id of a connector name.
    ConnId
);

#[derive(Debug, Clone)]
pub(super) struct Table<I, T> {
    ids: BTreeMap<Name, I>,
    names: Vec<Name>,
    slots: Vec<Option<T>>,
}

impl<I: SlotId, T> Table<I, T> {
    pub(super) fn new() -> Self {
        Table {
            ids: BTreeMap::new(),
            names: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// The id of `name`, giving it one if it never had one.
    pub(super) fn intern(&mut self, name: &str) -> I {
        if let Some(id) = self.ids.get(name) {
            return *id;
        }
        let id = I::from_index(self.slots.len());
        let name = Name::from(name.to_owned());
        self.ids.insert(name.clone(), id);
        self.names.push(name);
        self.slots.push(None);
        id
    }

    /// The id of `name` if it bears something now.
    pub(super) fn id(&self, name: &str) -> Option<I> {
        let id = *self.ids.get(name)?;
        self.slots[id.index()].is_some().then_some(id)
    }

    /// The name `id` stands for, whether or not anything bears it.
    pub(super) fn name(&self, id: I) -> &Name {
        &self.names[id.index()]
    }

    pub(super) fn get(&self, id: I) -> Option<&T> {
        self.slots[id.index()].as_ref()
    }

    pub(super) fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.slots[id.index()].as_mut()
    }

    pub(super) fn by_name(&self, name: &str) -> Option<&T> {
        self.get(*self.ids.get(name)?)
    }

    pub(super) fn by_name_mut(&mut self, name: &str) -> Option<&mut T> {
        let id = *self.ids.get(name)?;
        self.get_mut(id)
    }

    /// Makes `value` the bearer of `name`, returning the previous one.
    pub(super) fn insert(&mut self, name: &str, value: T) -> Option<T> {
        let id = self.intern(name);
        self.slots[id.index()].replace(value)
    }

    pub(super) fn remove(&mut self, name: &str) -> Option<T> {
        self.slots[self.ids.get(name)?.index()].take()
    }

    pub(super) fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Every id ever given, in name order, whether or not anything bears
    /// the name now.
    pub(super) fn ids(&self) -> impl Iterator<Item = I> + '_ {
        self.ids.values().copied()
    }

    /// Live entries with their ids, in name order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (I, &T)> {
        self.ids
            .values()
            .filter_map(|id| Some((*id, self.slots[id.index()].as_ref()?)))
    }

    /// Ids of live entries, in name order.
    pub(super) fn live_ids(&self) -> impl Iterator<Item = I> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Live entries in name order.
    pub(super) fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, value)| value)
    }

    /// Live entries in id order, for updates whose order cannot show.
    pub(super) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    /// A table of the same names and ids whose live entries are `f` of
    /// this one's; `None` as soon as `f` gives `None`.
    pub(super) fn try_map<U>(&self, mut f: impl FnMut(&T) -> Option<U>) -> Option<Table<I, U>> {
        let slots = self
            .slots
            .iter()
            .map(|slot| match slot {
                Some(value) => f(value).map(Some),
                None => Some(None),
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Table {
            ids: self.ids.clone(),
            names: self.names.clone(),
            slots,
        })
    }
}
