-- Figure 2: the hotel-reservation relational schema (SIGMOD'03 §2.1).
-- xvc_core::paper_fixtures reads Figure 2 from this one copy.
CREATE TABLE hotelchain (
    chainid     INT PRIMARY KEY,
    companyname TEXT,
    hqstate     TEXT
);
CREATE TABLE metroarea (
    metroid   INT PRIMARY KEY,
    metroname TEXT
);
CREATE TABLE hotel (
    hotelid    INT PRIMARY KEY,
    hotelname  TEXT,
    starrating INT,
    chain_id   INT,
    metro_id   INT,
    state_id   INT,
    city       TEXT,
    pool       TEXT,
    gym        TEXT
);
CREATE TABLE guestroom (
    r_id       INT PRIMARY KEY,
    rhotel_id  INT,
    roomnumber INT,
    type       TEXT,
    rackrate   INT
);
CREATE TABLE confroom (
    c_id        INT PRIMARY KEY,
    chotel_id   INT,
    croomnumber INT,
    capacity    INT,
    rackrate    INT
);
CREATE TABLE availability (
    a_id      INT PRIMARY KEY,
    a_r_id    INT,
    startdate TEXT,
    enddate   TEXT,
    price     INT
);
