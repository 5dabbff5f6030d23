// Clean counterpart of `infallible_twin.rs`: every fallible operation
// has exactly one spelling, and callers that want a panic say so at
// the call site. Test helpers may pair the names freely.

impl View {
    pub fn try_snapshot(&self, t: Time) -> Result<Delta, StoreError> {
        self.plan(t).run()
    }

    pub fn try_build(cfg: Config, events: &[Event]) -> Result<View, BuildError> {
        View::empty(cfg).try_append(events)
    }

    pub fn end_time(&self) -> Time {
        self.end_time
    }
}

pub fn report(view: &View, t: Time) -> usize {
    view.try_snapshot(t)
        .expect("report runs against a healthy cluster")
        .cardinality()
}

#[cfg(test)]
mod tests {
    fn snapshot(view: &View, t: Time) -> Delta {
        try_snapshot(view, t).unwrap()
    }

    fn try_snapshot(view: &View, t: Time) -> Result<Delta, StoreError> {
        view.try_snapshot(t)
    }
}
