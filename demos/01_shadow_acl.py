"""Shadow ACL basics: rows, the owner/group/other cascade, root denial.

The list lives outside the guest.  Each row pins a path to octal permission
bits and an owner; whoever the requester is, unlisted paths are considered
noncritical and permitted by default.
"""

from hvguard import EXECUTE_BIT, PERMIT, READ_BIT, WRITE_BIT, check_access, parse_sacl

KINDS = (("read", READ_BIT), ("write", WRITE_BIT), ("execute", EXECUTE_BIT))

SACL_TEXT = """\
/home/user/Documents/critical.txt 644 1000 1000
/home/user/Desktop/read-only.pdf  400 1000 1000
/etc/shadow 400 0 0
"""

sacl = parse_sacl(SACL_TEXT)
print(f"loaded {len(sacl.entries)} rows")

# The owner of critical.txt may read and write; everyone else may only read.
entry = sacl.lookup("/home/user/Documents/critical.txt")
for who, uid, gid in [("owner", 1000, 1000), ("group", 2000, 1000), ("other", 2000, 2000)]:
    granted = [name for name, bit in KINDS if check_access(entry, uid, gid, bit) is PERMIT]
    print(f"{who}: {' '.join(granted)}")

# uid 0 is just another uid here: the /etc/shadow row grants root read-only,
# so even a root-owned process cannot write the password store.
shadow = sacl.lookup("/etc/shadow")
for name, bit in KINDS[:2]:
    print(f"root {name:7s} /etc/shadow -> {check_access(shadow, 0, 0, bit)}")

# Paths without a row have no rule, and fall through to the caller's default.
print("unlisted file ->", check_access(sacl.lookup("/tmp/scratch"), 0, 0, WRITE_BIT))
