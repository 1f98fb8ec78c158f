// Fixture: unbounded channel constructors in production code.

pub fn mpsc_pair() -> (std::sync::mpsc::Sender<u8>, std::sync::mpsc::Receiver<u8>) {
    std::sync::mpsc::channel()
}

pub fn unbounded_pair() -> (Sender<u8>, Receiver<u8>) {
    let (tx, rx) = unbounded();
    (tx, rx)
}
