"""Every file the package reads: a file it cannot open or decode, or a
key/value file with a malformed line, is a DataFormatError naming the
file."""

import codecs
import locale
import re

import pytest

from heterotune import cli, dataset, platforms, readers
from heterotune.errors import DataFormatError
from heterotune.synthetic import PROFILES, generate_system


@pytest.fixture(scope="module")
def ci_matrix():
    return generate_system(PROFILES["ci"]).matrix


# reader name -> a call reading ``path``
READERS = {
    "load_system": lambda path, m: platforms.load_system(path),
    "load_training": lambda path, m: dataset.load_training(path),
    "read_grid": lambda path, m: dataset._read_grid(path, m.configs),
    "load_applications": lambda path, m: dataset.load_applications(path),
    "load_samples": lambda path, m: cli.load_samples(path, m),
    "run_manifest": lambda path, m: cli._splice_manifest(["predict", "--manifest", path]),
}

# key/value readers -> a file whose last line is neither a section, a key
# nor a comment, and that line's number
MALFORMED = {
    "load_system": ("[platform p]\nkind = cpu\nthis line has no separator\n", 3),
    "load_training": ("[training]\npower = power.csv\nthis line has no separator\n", 3),
    "run_manifest": ("samples = 20\nthis line has no separator\n", 2),
}


@pytest.mark.parametrize("reader", READERS)
def test_missing_file_names_its_path(tmp_path, ci_matrix, reader):
    path = str(tmp_path / "absent.txt")
    with pytest.raises(DataFormatError, match="cannot read .*absent.txt"):
        READERS[reader](path, ci_matrix)


@pytest.mark.skipif(codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
                    reason="files are decoded in the locale's encoding")
@pytest.mark.parametrize("reader", READERS)
def test_undecodable_file_names_its_path(tmp_path, ci_matrix, reader):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe not text\n")
    with pytest.raises(DataFormatError, match="cannot read .*binary.txt: 'utf-8' codec"):
        READERS[reader](str(path), ci_matrix)


@pytest.mark.parametrize("reader", MALFORMED)
def test_malformed_key_value_line_names_its_path(tmp_path, ci_matrix, reader):
    path = tmp_path / "bad.conf"
    text, line = MALFORMED[reader]
    path.write_text(text)
    with pytest.raises(DataFormatError) as info:
        READERS[reader](str(path), ci_matrix)
    assert str(info.value).startswith(f"{path}: ")
    assert "this line has no separator" in str(info.value)
    assert re.search(rf"\bline +{line}\b", str(info.value)), str(info.value)


def test_values_are_read_literally(tmp_path):
    # a '%' is an ordinary character, not an interpolation
    path = tmp_path / "run.conf"
    path.write_text("cpu_cmd = app:1 %s\ngpu_cmd = 100%%\n")
    assert cli._splice_manifest(["sample", "--manifest", str(path)])[1:3] == [
        "--cpu-cmd=app:1 %s", "--gpu-cmd=100%%"]
    path.write_text("[platform p]\ncmd = app:1 %s\nshare = 100%%\n")
    assert readers.read_sections(str(path), "platform file") == {
        "platform p": {"cmd": "app:1 %s", "share": "100%%"}}
