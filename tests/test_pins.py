"""The frozen output pins of tests/pins.py, one test id per row."""
import re

import pytest

import pins


@pytest.mark.parametrize("pin", pins.PINS, ids=[pin.name for pin in pins.PINS])
def test_pin(pin):
    code, stdout, stderr = pins.run(pin)
    assert (code, stderr) == (pin.code, b"")
    assert pins.pinned(pin, stdout) == pins.expected(pin, pins.digests())


def test_the_table_covers_the_golden_files_exactly():
    names = [pin.name for pin in pins.PINS]
    assert len(set(names)) == len(names)
    held = pins.digests()
    assert list(held) == [pin.name for pin in pins.PINS if pin.out is None]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in held.values())
    used = {pin.stdin for pin in pins.PINS if isinstance(pin.stdin, str)}
    used |= {pin.out for pin in pins.PINS if pin.out}
    present = {path.name for path in pins.GOLDEN.iterdir()}
    assert present == used | {pins.DIGESTS.name, "README.md"}
